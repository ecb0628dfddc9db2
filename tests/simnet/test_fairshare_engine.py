"""Equivalence and invariant tests for the incremental fair-share engine.

The production engine behind :func:`compute_fair_rates` (flow-class
collapsing + incremental aggregates) must produce the same rate vector
as the reference water-filling loop, up to float round-off, on any flow
population.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simnet.fairshare import (
    FairShareAllocator,
    compute_fair_rates,
    compute_fair_rates_reference,
)
from repro.simnet.flow import Flow
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource

REL_TOL = 1e-9


def assert_rate_vectors_match(flows, reference, optimized):
    assert set(reference) == set(optimized) == set(flows)
    for flow in flows:
        assert optimized[flow] == pytest.approx(reference[flow],
                                                rel=REL_TOL, abs=1e-9), flow


def random_scenario(rng: random.Random, *, n_res: int, n_flows: int,
                    n_signatures: int):
    """Random resources + flows drawn from a limited signature pool.

    A small signature pool mirrors real campaigns (many flows share the
    same circuit path and weight) and exercises class collapsing.
    """
    resources = [Resource(f"r{i}", capacity_bps=rng.uniform(10.0, 1e6),
                          background_load=rng.choice([0.0, rng.uniform(0, 10)]))
                 for i in range(n_res)]
    signatures = []
    for _ in range(n_signatures):
        k = rng.randint(1, n_res)
        path = tuple(rng.sample(resources, k))
        weight = rng.choice([1.0, 1.0, 2.0, rng.uniform(0.1, 5.0)])
        signatures.append((path, weight))
    flows = []
    for _ in range(n_flows):
        path, weight = rng.choice(signatures)
        flows.append(Flow(path, rng.uniform(1.0, 1e7), weight=weight))
    return resources, flows


@pytest.mark.parametrize("seed", range(25))
def test_engines_agree_on_randomized_collapsible_flow_sets(seed):
    rng = random.Random(seed)
    resources, flows = random_scenario(
        rng, n_res=rng.randint(1, 8), n_flows=rng.randint(1, 60),
        n_signatures=rng.randint(1, 6))
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@pytest.mark.parametrize("seed", range(25, 40))
def test_engines_agree_when_every_flow_is_unique(seed):
    """No collapsing opportunity: every flow its own class."""
    rng = random.Random(seed)
    resources, flows = random_scenario(
        rng, n_res=rng.randint(2, 6), n_flows=20, n_signatures=40)
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@st.composite
def flow_scenarios(draw):
    n_res = draw(st.integers(min_value=1, max_value=5))
    resources = [
        Resource(f"r{i}",
                 capacity_bps=draw(st.floats(min_value=10.0, max_value=1e6)),
                 background_load=draw(st.floats(min_value=0.0, max_value=10.0)))
        for i in range(n_res)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        k = draw(st.integers(min_value=1, max_value=n_res))
        idx = draw(st.permutations(range(n_res)))
        path = tuple(resources[i] for i in idx[:k])
        weight = draw(st.floats(min_value=0.1, max_value=5.0))
        flows.append(Flow(path, draw(st.floats(min_value=1.0, max_value=1e7)),
                          weight=weight))
    return resources, flows


@given(flow_scenarios())
@settings(max_examples=120, deadline=None)
def test_property_engines_equivalent(scenario):
    _, flows = scenario
    reference = compute_fair_rates_reference(flows)
    optimized = compute_fair_rates(flows)
    assert_rate_vectors_match(flows, reference, optimized)


@given(flow_scenarios())
@settings(max_examples=120, deadline=None)
def test_property_no_resource_oversubscribed(scenario):
    resources, flows = scenario
    rates = compute_fair_rates(flows)
    for res in resources:
        used = sum(rate for flow, rate in rates.items() if res in flow.path)
        assert used <= res.capacity_bps * (1 + 1e-9) + 1e-6


@given(flow_scenarios())
@settings(max_examples=80, deadline=None)
def test_property_work_conserving_at_bottleneck_optimized(scenario):
    """Every flow is frozen at some saturated resource: it could not go
    faster without taking capacity from an equal-or-slower competitor."""
    resources, flows = scenario
    rates = compute_fair_rates(flows)
    leftover = {}
    for res in resources:
        used = sum(rate for flow, rate in rates.items() if res in flow.path)
        leftover[res] = res.capacity_bps - used
    for flow in flows:
        share = rates[flow] / flow.weight
        bottlenecked = any(
            leftover[res] <= share * res.background_load + res.capacity_bps * 1e-6
            for res in flow.path)
        assert bottlenecked, f"flow {flow} has no saturated bottleneck"


def test_identical_signature_flows_get_identical_rates():
    r1, r2 = Resource("a", 1000.0), Resource("b", 5000.0)
    flows = [Flow((r1, r2), 1e6, weight=2.0) for _ in range(50)]
    rates = compute_fair_rates(flows)
    values = set(rates.values())
    assert len(values) == 1
    assert values.pop() == pytest.approx(1000.0 / 50)


def test_duplicate_resource_in_path_charged_per_occurrence():
    """A path crossing one resource twice pays its rate twice there."""
    r = Resource("loop", 1000.0)
    f1 = Flow((r, r), 1e6)
    f2 = Flow((r,), 1e6)
    reference = compute_fair_rates_reference([f1, f2])
    optimized = compute_fair_rates([f1, f2])
    assert_rate_vectors_match([f1, f2], reference, optimized)


def test_flow_listed_twice_counts_once():
    """The reference treats its input as a set; so must the engine."""
    r = Resource("r", 100.0)
    f, g = Flow((r,), 1e6), Flow((r,), 1e6)
    reference = compute_fair_rates_reference([f, f, g])
    assert reference == {f: 50.0, g: 50.0}
    assert compute_fair_rates([f, f, g]) == reference


def test_registering_a_flow_twice_raises():
    """A second registration would count the flow's weight twice."""
    r = Resource("r", 100.0)
    flow = Flow((r,), 1e6)
    alloc = FairShareAllocator()
    alloc.add_flow(flow)
    with pytest.raises(SimulationError):
        alloc.add_flow(flow)
    assert len(alloc) == 1
    alloc.remove_flow(flow)
    assert len(alloc) == 0
    assert not list(alloc.classes())


def test_counters_report_collapsing():
    r = Resource("r", 1000.0)
    flows = [Flow((r,), 1e6) for _ in range(40)]
    counters = PerfCounters()
    compute_fair_rates(flows, counters=counters)
    assert counters.reallocations == 1
    assert counters.flows_allocated == 40
    assert counters.classes_allocated == 1
    assert counters.flows_per_class == pytest.approx(40.0)
    assert counters.waterfill_rounds == 1


def test_empty_and_inactive_inputs():
    assert compute_fair_rates([]) == {}
    r = Resource("r", 100.0)
    f1, f2 = Flow((r,), 10.0), Flow((r,), 10.0)
    from repro.simnet.flow import FlowState
    f2.state = FlowState.COMPLETED
    rates = compute_fair_rates([f1, f2])
    assert set(rates) == {f1}
    assert rates[f1] == pytest.approx(100.0)
