"""Fluid flows: finite transfers across a path of resources."""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.fairshare import FlowClass
    from repro.simnet.resource import Resource

_flow_ids = itertools.count(1)


class FlowState(enum.Enum):
    """Lifecycle of a fluid flow."""

    ACTIVE = "active"
    COMPLETED = "completed"
    ABORTED = "aborted"


class Flow:
    """A transfer of ``size_bytes`` across ``path`` resources.

    The fluid network assigns each active flow a rate; the flow completes
    when its remaining volume reaches zero. ``on_complete``/``on_abort``
    callbacks receive the flow itself.

    Byte progress is accounted per flow *class*, not per flow: while a
    flow is bound to a :class:`~repro.simnet.fairshare.FlowClass`
    (``_acct``), every member progresses at the identical class rate, so
    the class keeps one cumulative per-member *service* total (bytes a
    member delivered since the class was created) and the flow only
    stores the service level observed when it joined
    (``_service_offset``). ``remaining``/``bytes_done``/``rate_bps`` are
    materialized lazily from those two numbers on read; an unbound flow
    (not registered with a progress-tracking allocator) falls back to
    its own plain fields.
    """

    __slots__ = ("fid", "path", "size_bytes", "_remaining", "weight",
                 "_rate_bps", "state", "started_at", "finished_at",
                 "on_complete", "on_abort", "abort_reason",
                 "_acct", "_service_offset")

    def __init__(self, path: tuple["Resource", ...], size_bytes: float, *,
                 weight: float = 1.0,
                 on_complete: Optional[Callable[["Flow"], None]] = None,
                 on_abort: Optional[Callable[["Flow"], None]] = None) -> None:
        if size_bytes < 0:
            raise SimulationError("flow size must be >= 0")
        if not path:
            raise SimulationError("flow path must contain at least one resource")
        if weight <= 0:
            raise SimulationError("flow weight must be positive")
        self.fid = next(_flow_ids)
        self.path = tuple(path)
        self.size_bytes = float(size_bytes)
        self._remaining = float(size_bytes)
        self.weight = float(weight)
        self._rate_bps = 0.0
        self.state = FlowState.ACTIVE
        self.started_at: float = 0.0
        self.finished_at: float | None = None
        self.on_complete = on_complete
        self.on_abort = on_abort
        self.abort_reason: str | None = None
        self._acct: Optional["FlowClass"] = None
        self._service_offset = 0.0

    # -- lazily materialized progress -----------------------------------

    @property
    def remaining(self) -> float:
        """Bytes left to deliver (lazily materialized while class-bound)."""
        cls = self._acct
        if cls is None:
            return self._remaining
        left = self._remaining - (cls.service - self._service_offset)
        return left if left > 0.0 else 0.0

    @property
    def rate_bps(self) -> float:
        """Current assigned rate: the class rate while bound."""
        cls = self._acct
        return cls.rate if cls is not None else self._rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        self._rate_bps = value

    @property
    def bytes_done(self) -> float:
        """Payload bytes delivered so far."""
        return self.size_bytes - self.remaining

    @property
    def is_active(self) -> bool:
        return self.state is FlowState.ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow #{self.fid} {self.state.value} "
                f"{self.bytes_done:.0f}/{self.size_bytes:.0f}B @{self.rate_bps:.0f}B/s>")
