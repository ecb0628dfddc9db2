"""Discrete-event simulation kernel.

A minimal, deterministic event loop: events are ``(time, seq, callback)``
triples kept in a binary heap. ``seq`` is a monotonically increasing
counter so that events scheduled for the same instant fire in FIFO order,
which keeps every simulation run bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError


class Event:
    """A scheduled callback. Returned by :meth:`EventKernel.schedule`.

    Events may be cancelled; cancelled events stay in the heap but are
    skipped when popped (lazy deletion).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so it will not fire."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class EventKernel:
    """Deterministic discrete-event scheduler.

    Example:
        >>> k = EventKernel()
        >>> fired = []
        >>> _ = k.schedule(1.5, fired.append, "a")
        >>> _ = k.schedule(0.5, fired.append, "b")
        >>> k.run()
        >>> fired
        ['b', 'a']
        >>> k.now
        1.5
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._post_hooks: list[Callable[[], None]] = []
        # True while an event callback executes; read directly (not via a
        # property, it sits on the per-mutation hot path) by FluidNetwork
        # to decide whether a fallback drain event is needed.
        self._in_step = False

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule event at {time} before now={self.now}")
        event = Event(time, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def add_post_event_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` after every fired event's callback returns.

        Used by :class:`~repro.simnet.network.FluidNetwork` to drain
        coalesced reallocation requests at event boundaries without
        scheduling extra same-instant events.
        """
        self._post_hooks.append(hook)

    # -- execution ----------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event. Returns False if none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap yielded an event from the past")
            self.now = event.time
            self._events_fired += 1
            self._in_step = True
            try:
                event.callback(*event.args)
                for hook in self._post_hooks:
                    hook()
            finally:
                self._in_step = False
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired (whichever comes first).

        When ``until`` is given, ``now`` is advanced to ``until`` even if
        the heap drained earlier, so follow-up scheduling is relative to
        the requested horizon. If the ``max_events`` budget halts the run
        first, ``now`` is advanced as far as it can go without passing
        the next unfired event (that event is at or before ``until``, or
        the horizon check would have exited instead) — callers resuming
        with ``run(until=kernel.now + dt, max_events=...)`` chunks see
        time move rather than a clock stuck at the last fired event.
        """
        fired = 0
        while self._heap:
            nxt = self._peek()
            if nxt is None:
                break
            if until is not None and nxt.time > until:
                break
            if max_events is not None and fired >= max_events:
                if until is not None and nxt.time > self.now:
                    self.now = nxt.time
                return
            self.step()
            fired += 1
        if until is not None and until > self.now:
            self.now = until

    def _peek(self) -> Event | None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(1 for event in self._heap if not event.cancelled)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventKernel now={self.now:.6f} pending={self.pending}>"
