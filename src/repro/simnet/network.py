"""The fluid network: couples flows, fair sharing, and the event kernel.

``FluidNetwork`` owns the set of active flows. Whenever the set changes
(a flow starts, completes, or aborts) or a resource's background load is
changed, the network is marked *dirty* and a drain event is scheduled at
the current instant. All same-instant mutations therefore coalesce into
one fair-share recomputation (epoch batching) — a surge tick that starts
hundreds of background flows pays for a single water-filling instead of
one per flow. Between recomputations every flow progresses linearly at
its assigned rate, so progress accounting stays exact: no simulated time
can pass between a mutation and its same-instant drain.

Progress and completion are accounted per *flow class*, not per flow.
Every member of a :class:`~repro.simnet.fairshare.FlowClass` moves at
the identical class rate, so advancing time credits one cumulative
``service`` total per class (O(classes) per event, however many flows
each class collapses); per-flow ``remaining``/``bytes_done`` are
materialized lazily from the class service on read, at completion, and
when a flow leaves its class. A member's completion is a fixed *finish
service* level — independent of how rates change — kept in a per-class
heap, so the class's next completion is O(1) to query.

Completion scheduling keeps one dict from class to projected
next-completion time and arms its minimum. A class's absolute ETA only
changes when its *rate* or its membership changes, so a reallocation
recomputes the ETA of those classes only — and never any per-flow one.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Optional

from repro.errors import SimulationError
from repro.simnet.fairshare import FairShareAllocator, FlowClass
from repro.simnet.flow import Flow, FlowState
from repro.simnet.kernel import Event, EventKernel
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource

_EPSILON_BYTES = 1e-6  # float-tolerance for "transfer finished"

_INF = float("inf")
_flow_fid = operator.attrgetter("fid")


class FluidNetwork:
    """Flow-level network simulator bound to an :class:`EventKernel`."""

    def __init__(self, kernel: EventKernel,
                 counters: Optional[PerfCounters] = None) -> None:
        self.kernel = kernel
        self.counters = counters if counters is not None else PerfCounters()
        self._allocator = FairShareAllocator(track_progress=True,
                                             counters=self.counters)
        self._flows: set[Flow] = set()
        self._last_update = kernel.now
        self._completion_event: Optional[Event] = None
        self._dirty = False
        self._drain_event: Optional[Event] = None
        # Classes whose membership changed since the last reallocation:
        # their min finish service (and hence ETA) may have moved even
        # if their rate did not.
        self._touched_classes: set[FlowClass] = set()
        # Projected next completion time per class. A stalled class has
        # no projected completion, and no entry: the dict never holds inf.
        self._eta_of: dict[FlowClass, float] = {}
        # Drain coalesced mutations at event boundaries with no extra
        # same-instant events; the scheduled drain is only the fallback
        # for mutations made outside the event loop.
        kernel.add_post_event_hook(self._drain_if_dirty)

    # -- public API ----------------------------------------------------

    def start_flow(self, path: Iterable[Resource], size_bytes: float, *,
                   weight: float = 1.0,
                   on_complete: Optional[Callable[[Flow], None]] = None,
                   on_abort: Optional[Callable[[Flow], None]] = None) -> Flow:
        """Begin a transfer and return its :class:`Flow` handle.

        Zero-byte flows complete immediately (their callback fires from
        within this call). Rates for the new epoch are assigned by the
        same-instant drain event, before any simulated time passes.
        """
        flow = Flow(tuple(path), size_bytes, weight=weight,
                    on_complete=on_complete, on_abort=on_abort)
        flow.started_at = self.kernel.now
        if flow.size_bytes <= _EPSILON_BYTES:
            self._finish(flow)
            return flow
        self._advance_progress()
        self._flows.add(flow)
        self._touched_classes.add(self._allocator.add_flow(flow))
        self._mark_dirty()
        return flow

    def abort_flow(self, flow: Flow, reason: str = "aborted") -> None:
        """Abort an active flow; its ``on_abort`` callback fires."""
        if not flow.is_active:
            return
        self._advance_progress()
        self._remove_flow(flow)
        flow.state = FlowState.ABORTED
        flow.abort_reason = reason
        flow.finished_at = self.kernel.now
        flow.rate_bps = 0.0
        self._mark_dirty()
        if flow.on_abort is not None:
            flow.on_abort(flow)

    def notify_load_changed(self) -> None:
        """Re-run the allocation after a background-load change."""
        if not self._flows:
            self.counters.noop_skips += 1
            return  # nothing shares the changed resource: no-op
        self._advance_progress()
        self._mark_dirty()

    @property
    def active_flows(self) -> frozenset[Flow]:
        return frozenset(self._flows)

    # -- internals -----------------------------------------------------

    def _advance_progress(self) -> None:
        """Credit elapsed time to every class's service accumulator.

        O(classes): each member of a class delivered exactly
        ``rate * dt`` bytes, so one accumulator per class carries the
        progress of all its members.
        """
        now = self.kernel.now
        dt = now - self._last_update
        if dt < 0:  # pragma: no cover - defensive
            raise SimulationError("time went backwards in FluidNetwork")
        if dt > 0:
            for cls in self._allocator.classes():
                rate = cls.rate
                if rate > 0.0:
                    cls.service += rate * dt
        self._last_update = now

    def _mark_dirty(self) -> None:
        """Request a reallocation; same-event requests coalesce."""
        if self._dirty:
            self.counters.coalesced_mutations += 1
        else:
            self._dirty = True
        # Arm the fallback drain independently of the dirty flag: if an
        # earlier event callback raised after marking dirty (skipping
        # its post-event hook), the next top-level mutation still gets
        # a same-instant drain instead of inheriting a stranded flag.
        if not self.kernel._in_step and self._drain_event is None:
            self._drain_event = self.kernel.schedule(0.0, self._drain)

    def _drain_if_dirty(self) -> None:
        """Post-event hook: apply any reallocation this event requested.

        Every mutation advances progress before marking dirty and the
        drain runs at the same instant, so no extra progress credit is
        needed here.
        """
        if self._dirty:
            self._dirty = False
            if self._drain_event is not None:
                # An outside-the-loop mutation armed the fallback drain;
                # this hook got there first, so retire the event instead
                # of letting it fire as a no-op.
                self._drain_event.cancel()
                self._drain_event = None
            self._reallocate()

    def _drain(self) -> None:
        self._drain_event = None
        self._drain_if_dirty()

    def _remove_flow(self, flow: Flow) -> None:
        self._flows.discard(flow)
        cls, died = self._allocator.remove_flow(flow)
        if cls is not None:
            if died:
                self._eta_of.pop(cls, None)
            else:
                self._touched_classes.add(cls)

    def _reallocate(self) -> None:
        """Recompute fair rates and schedule the next completion.

        Only classes whose rate or membership changed get a new ETA:
        recomputing an unchanged class at a later ``now`` would move its
        ETA by a few ulps.
        """
        if not self._flows:
            # No-op guard: nothing to allocate or to complete.
            self.counters.noop_skips += 1
            self._touched_classes.clear()
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        now = self.kernel.now
        eta_of = self._eta_of
        touched = self._touched_classes
        for cls in self._allocator.allocate(self.counters):
            rate = cls.rate
            if rate != cls.seen_rate or cls in touched or cls not in eta_of:
                cls.seen_rate = rate
                self._refresh_eta(cls, now)
        touched.clear()
        self._schedule_next_completion()

    # -- completion scheduling ------------------------------------------

    def _refresh_eta(self, cls: FlowClass, now: float) -> None:
        """Recompute a class's projected next completion time.

        The class's next finisher has ``finish - service`` bytes left at
        ``cls.rate``; a class that cannot finish is dropped from the
        ETA dict.
        """
        self.counters.eta_refreshes += 1
        finish = cls.next_finish_service()
        left = finish - cls.service
        if left <= 0:
            self._eta_of[cls] = now
        elif finish == _INF or cls.rate <= 0:
            self._eta_of.pop(cls, None)
        else:
            self._eta_of[cls] = now + left / cls.rate

    def _schedule_next_completion(self) -> None:
        next_eta = min(self._eta_of.values(), default=_INF)
        if next_eta == _INF:
            if self._completion_event is not None:
                self._completion_event.cancel()
                self._completion_event = None
            return
        target = max(next_eta, self.kernel.now)
        if (self._completion_event is not None
                and not self._completion_event.cancelled
                and self._completion_event.time == target):
            return  # already armed for exactly this instant
        if self._completion_event is not None:
            self._completion_event.cancel()
        self._completion_event = self.kernel.schedule_at(
            target, self._on_completion_tick)
        self.counters.completion_reschedules += 1

    def _on_completion_tick(self) -> None:
        """Complete every flow that has (numerically) finished.

        A flow is done within numeric tolerance: besides the byte
        epsilon, a flow whose remaining transfer time is below the float
        resolution of the current simulation time can never make further
        progress (``now + dt == now``), so it is complete by definition —
        without this, a completion event can refire at the same
        timestamp forever.

        The scan is O(due classes), not O(flows): only classes whose
        armed ETA is at or past ``now`` are inspected, and each yields
        its finished members from the head of its finish heap.
        """
        self._completion_event = None
        self._advance_progress()
        now = self.kernel.now
        min_dt = 8.0 * math.ulp(now if now > 1.0 else 1.0)
        eta_of = self._eta_of
        due = [cls for cls, eta in eta_of.items() if eta <= now]
        done: list[Flow] = []
        for cls in due:
            done.extend(cls.pop_finished(max(_EPSILON_BYTES,
                                             cls.rate * min_dt)))
        if len(done) > 1:
            # Class dict order is deterministic, but callbacks must fire
            # in the same run-stable order the per-flow scan used.
            done.sort(key=_flow_fid)
        if not done:
            # The armed ETA was stale by a few ulps (it is stored at
            # rate-assignment time, not recomputed per event). Refresh
            # every at-or-past-due class from live state; a class with
            # an unfinished next member has a strictly-future ETA, so
            # this cannot refire forever at one timestamp.
            for cls in due:
                self._refresh_eta(cls, now)
            self._schedule_next_completion()
            return
        for flow in done:
            self._remove_flow(flow)
        self._mark_dirty()
        for flow in done:
            self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        flow.state = FlowState.COMPLETED
        flow._remaining = 0.0  # the flow has already left its class
        flow.rate_bps = 0.0
        flow.finished_at = self.kernel.now
        if flow.on_complete is not None:
            flow.on_complete(flow)
