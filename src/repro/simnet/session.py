"""Coroutine-style simulated processes.

Fetchers and PT channels are written as generator functions that yield
*commands* — :class:`Delay`, :class:`Transfer`, :class:`Parallel`,
:class:`GetTime` — and receive results back, exactly like a cooperative
process in SimPy. The runner couples each process to the event kernel
and the fluid network, and implements:

* **timeouts** — a :class:`~repro.errors.ProcessTimeout` is thrown into
  the generator at the deadline (the in-flight transfer, if any, is
  aborted first and its partial byte count attached), mirroring the
  paper's curl/selenium page-load and file-download timeouts;
* **scheduled aborts** — a transfer can carry ``abort_at``, the absolute
  simulation time at which the underlying channel is known to die
  (proxy churn, rate-limit ban); a
  :class:`~repro.errors.TransferAborted` carrying the bytes delivered so
  far is thrown into the generator, which lets fetchers record *partial*
  downloads the same way the paper's harness does (Section 4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import ProcessTimeout, SimulationError, TransferAborted
from repro.simnet.flow import Flow
from repro.simnet.kernel import Event, EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource

ProcessGen = Generator[Any, Any, Any]


# -- commands ----------------------------------------------------------


@dataclass(frozen=True)
class Delay:
    """Sleep for ``seconds`` of simulated time."""

    seconds: float


@dataclass(frozen=True)
class Transfer:
    """Move ``nbytes`` across ``path``; resumes with a TransferResult.

    ``abort_at`` (absolute sim time) kills the transfer if it is still
    running then, raising TransferAborted inside the process.
    """

    path: tuple[Resource, ...]
    nbytes: float
    weight: float = 1.0
    abort_at: Optional[float] = None


@dataclass(frozen=True)
class Parallel:
    """Run child generators concurrently; resumes with list[Outcome]."""

    children: Sequence[ProcessGen]


@dataclass(frozen=True)
class GetTime:
    """Resumes immediately with the current simulation time."""


@dataclass(frozen=True)
class TransferResult:
    """Successful transfer: bytes moved and elapsed seconds."""

    nbytes: float
    duration: float


@dataclass
class Outcome:
    """Result of one :class:`Parallel` child: a value or an error."""

    value: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# -- the process driver -------------------------------------------------


@dataclass
class ProcessHandle:
    """Externally visible state of a running process."""

    name: str
    done: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    _driver: Any = field(default=None, repr=False)


class _ProcessDriver:
    """Steps one generator, bridging its commands onto kernel/network."""

    def __init__(self, kernel: EventKernel, net: FluidNetwork, gen: ProcessGen, *,
                 timeout: Optional[float] = None, name: str = "proc",
                 on_done: Optional[Callable[[ProcessHandle], None]] = None) -> None:
        self.kernel = kernel
        self.net = net
        self.gen = gen
        self.handle = ProcessHandle(name=name, started_at=kernel.now, _driver=self)
        self._on_done = on_done
        self._flow: Optional[Flow] = None
        self._flow_abort_event: Optional[Event] = None
        self._delay_event: Optional[Event] = None
        self._children: list[_ProcessDriver] = []
        self._children_pending = 0
        self._child_outcomes: list[Outcome] = []
        self._timing_out = False
        self._timeout_s = timeout
        self._timeout_event: Optional[Event] = None
        if timeout is not None:
            if timeout <= 0:
                raise SimulationError("process timeout must be positive")
            self._timeout_event = kernel.schedule(timeout, self._on_timeout)

    # -- lifecycle ---------------------------------------------------

    def start(self) -> ProcessHandle:
        self._advance(lambda: self.gen.send(None))
        return self.handle

    def _advance(self, resume: Callable[[], Any]) -> None:
        # GetTime resumes the generator at once: answering it in this
        # loop keeps a run of them from nesting a call per command.
        while not self.handle.done:
            try:
                command = resume()
            except StopIteration as stop:
                self._finish(result=stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate via handle
                self._finish(error=exc)
                return
            if isinstance(command, GetTime):
                resume = partial(self.gen.send, self.kernel.now)
                continue
            self._dispatch(command)
            return

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.handle.done = True
        self.handle.result = result
        self.handle.error = error
        self.handle.finished_at = self.kernel.now
        self._cleanup()
        if self._on_done is not None:
            self._on_done(self.handle)

    def _cleanup(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        if self._delay_event is not None:
            self._delay_event.cancel()
            self._delay_event = None
        self._clear_flow()
        for child in self._children:
            if not child.handle.done:
                child._force_timeout()
        self._children = []

    def _clear_flow(self) -> None:
        if self._flow_abort_event is not None:
            self._flow_abort_event.cancel()
            self._flow_abort_event = None
        if self._flow is not None and self._flow.is_active:
            flow, self._flow = self._flow, None
            # Detach callbacks before aborting: the process is over.
            flow.on_abort = None
            flow.on_complete = None
            self.net.abort_flow(flow, reason="process-finished")
        self._flow = None

    # -- command dispatch ---------------------------------------------

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Delay):
            if command.seconds < 0:
                self._advance(lambda: self.gen.throw(
                    SimulationError("negative Delay")))
                return
            self._delay_event = self.kernel.schedule(command.seconds, self._on_delay)
        elif isinstance(command, Transfer):
            self._start_transfer(command)
        elif isinstance(command, Parallel):
            self._start_parallel(command)
        else:
            self._advance(lambda: self.gen.throw(
                SimulationError(f"unknown process command {command!r}")))

    # -- Delay ---------------------------------------------------------

    def _on_delay(self) -> None:
        self._delay_event = None
        self._advance(lambda: self.gen.send(None))

    # -- Transfer --------------------------------------------------------

    def _start_transfer(self, command: Transfer) -> None:
        if command.abort_at is not None and command.abort_at <= self.kernel.now:
            exc = TransferAborted(0.0, reason="channel-failure")
            self._advance(lambda: self.gen.throw(exc))
            return
        started = self.kernel.now
        self._flow = self.net.start_flow(
            command.path, command.nbytes, weight=command.weight,
            on_complete=lambda f: self._on_flow_complete(f, started),
            on_abort=self._on_flow_abort)
        if self._flow.is_active and command.abort_at is not None:
            self._flow_abort_event = self.kernel.schedule_at(
                command.abort_at, self._fire_channel_abort)

    def _fire_channel_abort(self) -> None:
        self._flow_abort_event = None
        if self._flow is not None and self._flow.is_active:
            self.net.abort_flow(self._flow, reason="channel-failure")

    def _on_flow_complete(self, flow: Flow, started: float) -> None:
        if flow is not self._flow and self._flow is not None:  # pragma: no cover
            return
        self._flow = None
        if self._flow_abort_event is not None:
            self._flow_abort_event.cancel()
            self._flow_abort_event = None
        result = TransferResult(nbytes=flow.size_bytes, duration=self.kernel.now - started)
        self._advance(lambda: self.gen.send(result))

    def _on_flow_abort(self, flow: Flow) -> None:
        self._flow = None
        if self._flow_abort_event is not None:
            self._flow_abort_event.cancel()
            self._flow_abort_event = None
        if self._timing_out:
            exc: BaseException = ProcessTimeout(self._timeout_s or 0.0)
            exc.bytes_done = flow.bytes_done  # type: ignore[attr-defined]
        else:
            exc = TransferAborted(flow.bytes_done, reason=flow.abort_reason or "aborted")
        self._advance(lambda: self.gen.throw(exc))

    # -- Parallel --------------------------------------------------------

    def _start_parallel(self, command: Parallel) -> None:
        children = list(command.children)
        if not children:
            self._advance(lambda: self.gen.send([]))
            return
        self._children = []
        self._child_outcomes = [Outcome() for _ in children]
        self._children_pending = len(children)
        for index, gen in enumerate(children):
            driver = _ProcessDriver(
                self.kernel, self.net, gen, name=f"{self.handle.name}.{index}",
                on_done=lambda h, i=index: self._on_child_done(i, h))
            self._children.append(driver)
        # Start after registering all children, so that a synchronously
        # finishing child does not resume the parent early.
        for driver in list(self._children):
            driver.start()

    def _on_child_done(self, index: int, handle: ProcessHandle) -> None:
        outcome = self._child_outcomes[index]
        outcome.value = handle.result
        outcome.error = handle.error
        self._children_pending -= 1
        if self._children_pending == 0 and not self.handle.done:
            outcomes, self._child_outcomes = self._child_outcomes, []
            self._children = []
            if self._timing_out:
                exc = ProcessTimeout(self._timeout_s or 0.0)
                self._advance(lambda: self.gen.throw(exc))
            else:
                self._advance(lambda: self.gen.send(outcomes))

    # -- timeout ---------------------------------------------------------

    def _on_timeout(self) -> None:
        self._timeout_event = None
        self._force_timeout()

    def _force_timeout(self) -> None:
        """Abort the process: its own deadline passed, or its parent
        timed out or was cleaned up."""
        if self.handle.done:
            return
        self._timing_out = True
        self._timeout_s = self._timeout_s or 0.0
        if self._delay_event is not None:
            self._delay_event.cancel()
            self._delay_event = None
            self._advance(lambda: self.gen.throw(ProcessTimeout(self._timeout_s)))
        elif self._flow is not None:
            # Abort path: _on_flow_abort will throw ProcessTimeout.
            self.net.abort_flow(self._flow, reason="timeout")
        elif self._children_pending > 0:
            for child in self._children:
                if not child.handle.done:
                    child._force_timeout()
            # _on_child_done throws ProcessTimeout once all are done.
        else:
            self._advance(lambda: self.gen.throw(ProcessTimeout(self._timeout_s)))


# -- public entry points -------------------------------------------------


def start_process(kernel: EventKernel, net: FluidNetwork, gen: ProcessGen, *,
                  timeout: Optional[float] = None, name: str = "proc",
                  on_done: Optional[Callable[[ProcessHandle], None]] = None) -> ProcessHandle:
    """Start a process; it advances as the kernel runs."""
    return _ProcessDriver(kernel, net, gen, timeout=timeout, name=name,
                          on_done=on_done).start()


def run_process(kernel: EventKernel, net: FluidNetwork, gen: ProcessGen, *,
                timeout: Optional[float] = None, name: str = "proc") -> Any:
    """Run a process to completion, driving the kernel; return its result.

    Raises whatever the process raised (including ProcessTimeout) if it
    ended with an error.
    """
    handle = start_process(kernel, net, gen, timeout=timeout, name=name)
    while not handle.done:
        if not kernel.step():
            raise SimulationError(f"process {name!r} deadlocked: no pending events")
    if handle.error is not None:
        raise handle.error
    return handle.result
