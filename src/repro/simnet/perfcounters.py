"""Performance counters for the simnet hot path.

One :class:`PerfCounters` instance rides along with a
:class:`~repro.simnet.network.FluidNetwork` (and, through it, a
:class:`~repro.core.world.World`). Every layer of the allocation engine
increments its counter as it works, so a campaign can report *why* it
was fast or slow: how many reallocations ran, how many were coalesced
into one epoch, how many water-filling rounds the allocator needed, and
how well flow-class collapsing compressed the problem.

Counters are plain integers — incrementing them is cheap enough to stay
on permanently, which keeps production runs and microbenchmarks on the
same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass
class PerfCounters:
    """Counters for one fluid network / world instance.

    Attributes:
        reallocations: full fair-share recomputations actually executed.
        coalesced_mutations: flow-set/load mutations absorbed into an
            already-dirty epoch (each one is a recompute the old engine
            would have run separately).
        noop_skips: reallocation requests skipped because the network
            had no active flows.
        waterfill_rounds: bottleneck-freeze rounds across all
            reallocations.
        flows_allocated: flow-rate assignments summed over all
            reallocations (the F in O(F) work).
        classes_allocated: collapsed flow classes summed over all
            reallocations (the C <= F the engine actually solves for).
        completion_reschedules: next-completion events (re)scheduled.
        eta_refreshes: per-class ETA recomputations after a rate or
            membership change, or at a completion tick whose armed ETA
            was a few ulps early.
        lazy_materializations: per-flow byte-progress materializations
            forced by a class-membership change (completion, abort,
            leave); reads materialize lazily and are not counted.
    """

    reallocations: int = 0
    coalesced_mutations: int = 0
    noop_skips: int = 0
    waterfill_rounds: int = 0
    flows_allocated: int = 0
    classes_allocated: int = 0
    completion_reschedules: int = 0
    eta_refreshes: int = 0
    lazy_materializations: int = 0

    _FIELDS: ClassVar[tuple[str, ...]] = ()  # derived below the class

    @property
    def flows_per_class(self) -> float:
        """Mean collapse factor: how many flows each class stood for."""
        if self.classes_allocated == 0:
            return 0.0
        return self.flows_allocated / self.classes_allocated

    def reset(self) -> None:
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy (for reports and benchmark output)."""
        out: dict[str, float] = {name: float(getattr(self, name))
                                 for name in self._FIELDS}
        out["flows_per_class"] = self.flows_per_class
        return out

    def describe(self) -> str:
        """Human-readable one-block summary."""
        lines = ["simnet perf counters:"]
        for name in self._FIELDS:
            lines.append(f"  {name:24s} {getattr(self, name):>12d}")
        lines.append(f"  {'flows_per_class':24s} {self.flows_per_class:>12.2f}")
        return "\n".join(lines)

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        merged = PerfCounters()
        for name in self._FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


# Derived after class creation so reset/snapshot/describe/__add__ track
# every counter field automatically.
PerfCounters._FIELDS = tuple(f.name for f in fields(PerfCounters))
