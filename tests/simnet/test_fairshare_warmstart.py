"""Allocator and per-class progress accounting under churn.

Against :func:`compute_fair_rates_reference` the production
:class:`FairShareAllocator` guarantees rate-vector equality up to
round-off in general, and *exact* equality on star topologies with
single-flow classes and dyadic weights: there every per-resource weight
sum is float-exact and every residual receives at most one charge per
round, so both execute the same operations on the same operands (this
is the campaign shape — one access link per circuit, a shared
bridge/backbone). One allocator lives through each whole churn script,
so its incrementally maintained aggregates are exercised too.

Network-level: per-flow ``bytes_done`` is materialized lazily from the
class service accumulators; the production allocator and the reference
stand-in share that algebra, so with equal rate vectors the
materialized byte counts are bit-identical too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.fairshare import (
    FairShareAllocator,
    compute_fair_rates_reference,
)
from repro.simnet.flow import Flow
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource
from repro.simnet.rng import substream

#: Weights whose sums/differences are exact in binary floating point for
#: any realistic population size, keeping incremental aggregate
#: maintenance float-exact (the bit-identity tests rely on this).
DYADIC_WEIGHTS = (0.5, 1.0, 1.0, 2.0, 4.0)


def _rates_by_key(alloc: FairShareAllocator) -> dict:
    return {cls.key: cls.rate for cls in alloc.classes()}


# -- hypothesis: generic topologies, allocator ~ reference --------------


@st.composite
def churn_scripts(draw):
    """A resource pool, a signature pool, and a churn op sequence."""
    n_res = draw(st.integers(min_value=2, max_value=6))
    # A small capacity alphabet makes share ties frequent.
    caps = draw(st.lists(st.sampled_from(
        [100.0, 200.0, 200.0, 400.0, 1000.0]),
        min_size=n_res, max_size=n_res))
    n_sig = draw(st.integers(min_value=1, max_value=5))
    sig_specs = []
    for _ in range(n_sig):
        k = draw(st.integers(min_value=1, max_value=n_res))
        idx = draw(st.permutations(range(n_res)))
        weight = draw(st.sampled_from(DYADIC_WEIGHTS))
        sig_specs.append((tuple(idx[:k]), weight))
    n_ops = draw(st.integers(min_value=1, max_value=25))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["join", "join", "join", "leave",
                                     "load"]))
        if kind == "join":
            ops.append(("join", draw(st.integers(0, n_sig - 1))))
        elif kind == "leave":
            ops.append(("leave", draw(st.integers(0, 10 ** 6))))
        else:
            ops.append(("load", draw(st.integers(0, n_res - 1)),
                        draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5]))))
    return caps, sig_specs, ops


@given(churn_scripts())
@settings(max_examples=120, deadline=None)
def test_property_churn_matches_reference(script):
    caps, sig_specs, ops = script
    resources = [Resource(f"r{i}", cap) for i, cap in enumerate(caps)]
    signatures = [(tuple(resources[i] for i in idx), weight)
                  for idx, weight in sig_specs]
    alloc = FairShareAllocator()
    live: list[Flow] = []
    for op in ops:
        if op[0] == "join":
            path, weight = signatures[op[1]]
            flow = Flow(path, 1e6, weight=weight)
            live.append(flow)
            alloc.add_flow(flow)
        elif op[0] == "leave":
            if not live:
                continue
            alloc.remove_flow(live.pop(op[1] % len(live)))
        else:
            resources[op[1]].background_load = op[2]
        if not live:
            continue
        alloc.allocate()
        rates = _rates_by_key(alloc)
        # The reference loop may accumulate sums in a different order:
        # equality holds only up to round-off here.
        reference = compute_fair_rates_reference(live)
        for flow in live:
            key = alloc.class_of(flow).key
            assert rates[key] == pytest.approx(
                reference[flow], rel=1e-9, abs=1e-12)


# -- hypothesis: star topology, allocator == reference (bitwise) --------


@st.composite
def star_scripts(draw):
    n_links = draw(st.integers(min_value=2, max_value=8))
    caps = draw(st.lists(st.integers(min_value=10, max_value=10 ** 6),
                         min_size=n_links, max_size=n_links, unique=True))
    weights = draw(st.lists(st.sampled_from(DYADIC_WEIGHTS),
                            min_size=n_links, max_size=n_links))
    n_ops = draw(st.integers(min_value=1, max_value=20))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["join", "join", "leave", "backbone"]))
        if kind == "join":
            ops.append(("join", draw(st.integers(0, n_links - 1))))
        elif kind == "leave":
            ops.append(("leave", draw(st.integers(0, 10 ** 6))))
        else:
            ops.append(("backbone",
                        draw(st.floats(min_value=0.0, max_value=20.0))))
    return caps, weights, ops


@given(star_scripts())
@settings(max_examples=120, deadline=None)
def test_property_star_single_flow_classes_bitwise_equal_reference(script):
    """Single-flow classes on a star: one access link per flow plus one
    shared backbone. Every water-filling operand is identical between
    engines, so rate vectors are bit-identical — including share ties
    between links and zero-weight fringes."""
    caps, weights, ops = script
    backbone = Resource("backbone", 1e9)
    links = [Resource(f"l{i}", float(cap)) for i, cap in enumerate(caps)]
    alloc = FairShareAllocator()
    live: dict[int, Flow] = {}
    for op in ops:
        if op[0] == "join":
            i = op[1]
            if i in live:  # one flow per link keeps classes single-flow
                continue
            flow = Flow((links[i], backbone), 1e6, weight=weights[i])
            live[i] = flow
            alloc.add_flow(flow)
        elif op[0] == "leave":
            if not live:
                continue
            i = sorted(live)[op[1] % len(live)]
            alloc.remove_flow(live.pop(i))
        else:
            backbone.background_load = op[1]
        if not live:
            continue
        alloc.allocate()
        rates = _rates_by_key(alloc)
        reference = compute_fair_rates_reference(list(live.values()))
        for flow in live.values():
            key = alloc.class_of(flow).key
            assert rates[key] == reference[flow]  # bit-identical


# -- handcrafted edges --------------------------------------------------


def test_zero_rate_stall_matches_reference():
    """A resource drained to residual 0.0 yields an exact 0.0 share,
    and the stall survives churn on a disjoint resource."""
    r1 = Resource("r1", 10.0)
    r2 = Resource("r2", 6.25)
    r3 = Resource("r3", 1e6)
    heavy = Flow((r1, r1, r2), 1e6, weight=4.0)  # charges r1 twice
    light = Flow((r2,), 1e6)
    stalled = Flow((r1,), 1e6)
    alloc = FairShareAllocator()
    for flow in (heavy, light, stalled):
        alloc.add_flow(flow)
    alloc.allocate()
    # r2 freezes first (share 1.25); heavy's double charge drains r1 to
    # exactly 0.0, stalling the remaining flow at rate 0.0.
    assert alloc.class_of(heavy).rate == 5.0
    assert alloc.class_of(stalled).rate == 0.0
    extra = Flow((r3,), 1e6)
    alloc.add_flow(extra)
    alloc.allocate()
    reference = compute_fair_rates_reference([heavy, light, stalled, extra])
    for flow in (heavy, light, stalled, extra):
        assert alloc.class_of(flow).rate == reference[flow]
    assert alloc.class_of(stalled).rate == 0.0


# -- network level: reference stand-in and materialized bytes ----------


def _churn_trace() -> tuple[list[tuple], PerfCounters]:
    """Start/abort/complete churn on a star; returns per-flow facts."""
    kernel = EventKernel()
    counters = PerfCounters()
    net = FluidNetwork(kernel, counters=counters)
    rng = substream(42, "warmstart", "trace")
    backbone = Resource("backbone", 5e5)
    links = [Resource(f"link{i}", 1e4 * (i + 1)) for i in range(6)]
    record: list[tuple] = []
    flows: list[Flow] = []
    for wave in range(12):
        for i in range(6):
            flow = net.start_flow((links[i], backbone),
                                  rng.uniform(1e4, 2e5))
            flows.append(flow)
        kernel.run(until=kernel.now + rng.uniform(0.5, 2.0))
        victims = [f for f in flows if f.is_active][::3]
        for victim in victims:
            net.abort_flow(victim)  # forces materialization mid-flight
    kernel.run()
    for index, flow in enumerate(flows):
        record.append((index, flow.state.value, flow.bytes_done,
                       flow.remaining, flow.started_at, flow.finished_at))
    return record, counters


@pytest.fixture(scope="module")
def production_trace():
    """The production allocator's trace. Module scope runs this before
    any function-scoped fixture patches the allocator."""
    return _churn_trace()


def test_network_churn_bit_identical_across_engines(production_trace,
                                                    reference_allocator):
    reference, reference_counters = _churn_trace()
    # The reference loop solves per flow: no class collapsing.
    assert reference_counters.classes_allocated == \
        reference_counters.flows_allocated
    optimized, counters = production_trace
    assert counters.classes_allocated < counters.flows_allocated
    assert optimized == reference  # bytes_done/timestamps bit-identical
    assert counters.lazy_materializations > 0


def test_abort_materializes_partial_bytes_from_class_service():
    kernel = EventKernel()
    counters = PerfCounters()
    net = FluidNetwork(kernel, counters=counters)
    r = Resource("r", 100.0)
    a = net.start_flow([r], 1000.0)
    b = net.start_flow([r], 1000.0)
    kernel.run(until=4.0)
    net.abort_flow(a)  # advances class service, then materializes
    assert a.bytes_done == pytest.approx(200.0)  # 50 B/s each for 4s
    assert counters.lazy_materializations == 1
    kernel.run()
    assert b.state.value == "completed"
    assert b.bytes_done == pytest.approx(1000.0)
    assert b.remaining == 0.0
