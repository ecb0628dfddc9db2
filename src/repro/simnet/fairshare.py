"""Weighted max-min fair bandwidth allocation (water-filling).

Given a set of flows, each traversing a path of resources with finite
capacity, compute the weighted max-min fair rate vector: repeatedly find
the most contended resource, freeze the flows it bottlenecks at their
fair share, remove them, and continue with the residual capacities.

Each resource may also carry a *background load* — a virtual flow of
that weight which consumes its share but is never frozen by other
resources (it models aggregate cross-traffic local to the resource).

This is the standard fluid approximation used by flow-level network
simulators; it is what lets a 1.25M-measurement campaign finish in
seconds rather than simulating packets.

Two implementations compute the same mathematical allocation:

* :class:`FairShareAllocator` — the production engine, owned by a
  :class:`~repro.simnet.network.FluidNetwork`. Flows with an identical
  ``(path, weight)`` signature are collapsed into a *flow class*
  maintained incrementally as flows join and leave (campaigns reuse the
  same circuit path for repetitions and background traffic, so C
  classes is usually far smaller than F flows), and so are the
  per-resource weight totals, so no allocation rebuilds state from the
  flow population. A lone class — the shape every experiment produces —
  is solved directly as the smallest share on its path; several classes
  go through the water-filling loop, whose rounds scan the resources
  that still carry unfrozen classes for the bottleneck.
  :func:`compute_fair_rates` is its stateless one-shot form.
* :func:`compute_fair_rates_reference` — the original textbook loop.
  Every call rebuilds all per-resource state and every round re-scans
  every resource and re-intersects its flow set with the unfrozen set,
  so one call is O(rounds x resources x flows). No runtime code calls
  it: it is the oracle for property tests and benchmarks.

Both return the same rate vector up to float round-off: they perform
the same freezes at the same share levels, but accumulate sums in
different orders.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional

from repro.errors import SimulationError
from repro.simnet.flow import Flow
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource


# ---------------------------------------------------------------------------
# reference loop (test oracle)
# ---------------------------------------------------------------------------


def _by_fid(flow: Flow) -> int:
    """Deterministic sort key: the flow's creation serial."""
    return flow.fid


def compute_fair_rates_reference(flows: Iterable[Flow], *,
                                 counters: Optional[PerfCounters] = None,
                                 ) -> Mapping[Flow, float]:
    """The original from-scratch water-filling loop (the test oracle)."""
    flows = [f for f in flows if f.is_active]
    if not flows:
        return {}

    # Residual capacity and unfrozen flows per resource.
    residual: dict[Resource, float] = {}
    pending: dict[Resource, set[Flow]] = {}
    for flow in flows:
        for res in flow.path:
            if res not in residual:
                residual[res] = res.capacity_bps
                pending[res] = set()
            pending[res].add(flow)

    rates: dict[Flow, float] = {}
    unfrozen = set(flows)
    rounds = 0

    while unfrozen:
        # Fair share offered by each resource that still has unfrozen
        # flows: residual / (sum of unfrozen weights + background load).
        bottleneck: Resource | None = None
        best_share = float("inf")
        for res, flowset in pending.items():
            live = flowset & unfrozen
            if not live:
                continue
            # Sum in fid order: a float sum over a bare set would pick
            # up the flows in hash order, and float addition is not
            # associative — the oracle must not vary with PYTHONHASHSEED.
            denom = sum(f.weight
                        for f in sorted(live, key=_by_fid)) \
                + res.background_load
            share = residual[res] / denom
            if share < best_share:
                best_share = share
                bottleneck = res
        if bottleneck is None:  # pragma: no cover - defensive
            break
        rounds += 1

        # Freeze every unfrozen flow crossing the bottleneck at its
        # weighted share, and charge that rate to all its resources.
        frozen_now = pending[bottleneck] & unfrozen
        # fid order again: the residual decrements clamp at 0.0, so the
        # order flows are charged can change later shares.
        for flow in sorted(frozen_now, key=_by_fid):
            rate = best_share * flow.weight
            rates[flow] = rate
            for res in flow.path:
                residual[res] = max(0.0, residual[res] - rate)
        unfrozen -= frozen_now

    if counters is not None:
        counters.reallocations += 1
        counters.waterfill_rounds += rounds
        counters.flows_allocated += len(flows)
        counters.classes_allocated += len(flows)  # no collapsing
    return rates


# ---------------------------------------------------------------------------
# production engine
# ---------------------------------------------------------------------------


class FlowClass:
    """All active flows sharing one ``(path, weight)`` signature.

    The water-filling treats the class as a single aggregate of weight
    ``weight * len(members)``; when the class freezes, the per-flow rate
    (identical for every member) is fanned back out.

    The class is also the unit of *byte-progress accounting*: every
    member moves at the identical ``rate``, so ``service`` accumulates
    the cumulative bytes one member delivered since the class was
    created (maintained by the owning network's ``_advance_progress``
    in O(classes), not O(flows)). A member joining at service level
    ``s0`` with ``r`` bytes left completes exactly when ``service``
    reaches ``s0 + r`` — its *finish service* — so ``finish_heap``
    (entries ``(finish_service, fid, flow)``) yields the class's next
    completion independent of how rates change. Entries of members that
    have left the class are dropped lazily.
    """

    __slots__ = ("key", "weight", "members", "res_mults", "frozen_epoch",
                 "rate", "service", "finish_heap", "seen_rate")

    def __init__(self, key: tuple, weight: float,
                 res_mults: list[tuple[int, int]]) -> None:
        self.key = key
        self.weight = weight
        self.members: set[Flow] = set()
        # (rid, multiplicity in path): the denominator counts a flow's
        # weight once per resource, but the residual is charged once per
        # path *occurrence*, exactly like the reference engine.
        self.res_mults = res_mults
        self.frozen_epoch = -1
        self.rate = 0.0
        self.service = 0.0
        self.finish_heap: list[tuple[float, int, Flow]] = []
        # Last rate fanned out by the owning network (change detection).
        self.seen_rate = -1.0

    def next_finish_service(self) -> float:
        """Smallest live member finish-service level (inf if none)."""
        heap = self.finish_heap
        while heap:
            finish, _fid, flow = heap[0]
            if flow._acct is self:
                return finish
            heapq.heappop(heap)  # the member has left the class
        return float("inf")

    def pop_finished(self, slack: float) -> list[Flow]:
        """Pop every member within ``slack`` bytes of completion.

        Members come off the finish heap in (finish service, fid) order;
        entries of members that have left the class are dropped along
        the way.
        """
        done: list[Flow] = []
        heap = self.finish_heap
        service = self.service
        while heap:
            finish, _fid, flow = heap[0]
            if flow._acct is not self:
                heapq.heappop(heap)
            elif finish - service <= slack:
                heapq.heappop(heap)
                done.append(flow)
            else:
                break
        return done


class FairShareAllocator:
    """Incremental water-filling over collapsed flow classes.

    Membership mutations (:meth:`add_flow` / :meth:`remove_flow`) keep
    the class registry and per-resource weight totals current, so
    :meth:`allocate` never rebuilds state from the flow population. All
    internal maps are keyed by integer resource ids to stay off the
    Python-level ``Resource.__hash__``.

    With ``track_progress=True`` (how a
    :class:`~repro.simnet.network.FluidNetwork` builds its allocator),
    membership mutations also bind/unbind flows to their class's service
    accumulator: joins record the class service offset and register the
    member's finish threshold, leaves force-materialize the member's
    byte progress back into the flow.
    """

    __slots__ = ("_classes", "_class_of", "_resources", "_total_weight",
                 "_classes_at", "_epoch", "_n_flows", "_track_progress",
                 "counters")

    def __init__(self, *, track_progress: bool = False,
                 counters: Optional[PerfCounters] = None) -> None:
        self._classes: dict[tuple, FlowClass] = {}
        self._class_of: dict[Flow, FlowClass] = {}
        self._resources: dict[int, Resource] = {}
        self._total_weight: dict[int, float] = {}
        # Insertion-ordered "set" of classes per resource (dict keys),
        # so freeze order inside a round is deterministic run-to-run.
        self._classes_at: dict[int, dict[FlowClass, None]] = {}
        self._epoch = 0
        self._n_flows = 0
        self._track_progress = track_progress
        self.counters = counters

    def __len__(self) -> int:
        return self._n_flows

    def classes(self) -> Iterable[FlowClass]:
        """Live flow classes (the O(C) iteration unit for accounting)."""
        return self._classes.values()

    def class_of(self, flow: Flow) -> Optional[FlowClass]:
        return self._class_of.get(flow)

    # -- membership -----------------------------------------------------

    def add_flow(self, flow: Flow) -> FlowClass:
        """Register an active flow (O(path) amortized); returns its class.

        Raises :class:`~repro.errors.SimulationError` if the flow is
        already registered: its weight would count twice.
        """
        if flow in self._class_of:
            raise SimulationError(f"flow #{flow.fid} is already registered")
        key = (tuple([res.rid for res in flow.path]), flow.weight)
        cls = self._classes.get(key)
        if cls is None:
            mults: dict[int, int] = {}
            for res in flow.path:
                rid = res.rid
                mults[rid] = mults.get(rid, 0) + 1
                if rid not in self._resources:
                    self._resources[rid] = res
                    self._total_weight[rid] = 0.0
                    self._classes_at[rid] = {}
            cls = self._classes[key] = FlowClass(key, flow.weight,
                                                 list(mults.items()))
            for rid, _mult in cls.res_mults:
                self._classes_at[rid][cls] = None
        cls.members.add(flow)
        self._class_of[flow] = cls
        self._n_flows += 1
        weight = cls.weight
        for rid, _mult in cls.res_mults:
            self._total_weight[rid] += weight
        if self._track_progress:
            flow._acct = cls
            flow._service_offset = cls.service
            heapq.heappush(cls.finish_heap,
                           (cls.service + flow._remaining, flow.fid, flow))
        return cls

    def remove_flow(self, flow: Flow) -> tuple[Optional[FlowClass], bool]:
        """Deregister a previously added flow (O(path) amortized).

        Returns ``(cls, died)``: the flow's class and whether this
        removal destroyed it (so the owner can drop per-class state).
        """
        cls = self._class_of.pop(flow, None)
        if cls is None:
            return None, False
        if self._track_progress and flow._acct is cls:
            # Forced materialization: the flow leaves the service
            # stream, so bank its progress into the plain fields.
            flow._remaining = flow.remaining
            flow._rate_bps = cls.rate
            flow._acct = None
            if self.counters is not None:
                self.counters.lazy_materializations += 1
        cls.members.discard(flow)
        self._n_flows -= 1
        weight = cls.weight
        for rid, _mult in cls.res_mults:
            self._total_weight[rid] -= weight
        died = not cls.members
        if died:
            del self._classes[cls.key]
            for rid, _mult in cls.res_mults:
                at = self._classes_at[rid]
                del at[cls]
                if not at:
                    # Last class gone: drop the resource entirely, which
                    # also resets any accumulated float residue to zero.
                    del self._classes_at[rid]
                    del self._resources[rid]
                    del self._total_weight[rid]
        return cls, died

    # -- allocation -----------------------------------------------------

    def allocate(self, counters: Optional[PerfCounters] = None,
                 ) -> Iterable[FlowClass]:
        """Run one water-filling pass; returns the classes with their
        per-member ``rate`` set."""
        if counters is None:
            counters = self.counters
        self._epoch += 1
        epoch = self._epoch
        classes = self._classes
        if not classes:
            return ()

        # Fast path for the dominant shape: one class (a campaign's lone
        # foreground transfer, possibly with same-path repeats). Its
        # bottleneck is just the min share across its path.
        if len(classes) == 1:
            (cls,) = classes.values()
            share = float("inf")
            for rid, _mult in cls.res_mults:
                res = self._resources[rid]
                s = res.capacity_bps / (self._total_weight[rid]
                                        + res.background_load)
                if s < share:
                    share = s
            cls.rate = share * cls.weight
            cls.frozen_epoch = epoch
            if counters is not None:
                counters.reallocations += 1
                counters.waterfill_rounds += 1
                counters.flows_allocated += self._n_flows
                counters.classes_allocated += 1
            return classes.values()

        resources = self._resources
        classes_at = self._classes_at
        residual = {rid: res.capacity_bps for rid, res in resources.items()}
        live_weight = dict(self._total_weight)
        # Unfrozen classes per resource. A resource leaves the map when
        # its last class freezes, so the map empties with the last round.
        live_count = {rid: len(at) for rid, at in classes_at.items()}

        # Throughout, ``x if x > 0.0 else 0.0`` is the inlined (and
        # bit-identical) form of ``max(0.0, x)`` — the clamps sit on the
        # hottest arithmetic in the engine.
        rounds = 0
        while live_count:
            # The bottleneck: the smallest share, ties to the smallest rid.
            share, rid = min(
                (residual[r] / (live_weight[r] + resources[r].background_load),
                 r) for r in live_count)
            rounds += 1
            for cls in classes_at[rid]:
                if cls.frozen_epoch == epoch:
                    continue
                cls.frozen_epoch = epoch
                rate = share * cls.weight
                cls.rate = rate
                n = len(cls.members)
                agg_weight = cls.weight * n
                agg_rate = rate * n
                for rid2, mult in cls.res_mults:
                    value = residual[rid2] - agg_rate * mult
                    residual[rid2] = value if value > 0.0 else 0.0
                    value = live_weight[rid2] - agg_weight
                    live_weight[rid2] = value if value > 0.0 else 0.0
                    if live_count[rid2] == 1:
                        del live_count[rid2]
                    else:
                        live_count[rid2] -= 1

        if counters is not None:
            counters.reallocations += 1
            counters.waterfill_rounds += rounds
            counters.flows_allocated += self._n_flows
            counters.classes_allocated += len(classes)
        return classes.values()


def compute_fair_rates(flows: Iterable[Flow], *,
                       counters: Optional[PerfCounters] = None,
                       ) -> Mapping[Flow, float]:
    """Return the weighted max-min fair rate (bytes/s) for each flow.

    One-shot wrapper over :class:`FairShareAllocator`; the network
    keeps a persistent allocator instead of paying this per-call build.
    Background load on a resource participates in every round of the
    water-filling at its weight, so real flows on a busy resource get
    proportionally less. A flow listed more than once counts once, as
    in :func:`compute_fair_rates_reference`.
    """
    allocator = FairShareAllocator()
    for flow in dict.fromkeys(flows):
        if flow.is_active:
            allocator.add_flow(flow)
    rates: dict[Flow, float] = {}
    for cls in allocator.allocate(counters):
        rate = cls.rate
        for flow in cls.members:
            rates[flow] = rate
    return rates


def effective_bottleneck_bps(path: Iterable[Resource]) -> float:
    """Idle-network throughput of a lone flow on ``path``.

    Useful for analytic sanity checks: a single unit-weight flow gets
    ``capacity / (1 + background_load)`` at each resource and is limited
    by the minimum across the path.
    """
    best = float("inf")
    for res in path:
        best = min(best, res.capacity_bps / (1.0 + res.background_load))
    return best
