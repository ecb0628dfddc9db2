"""Tests for epoch-batched reallocation, per-class completion
scheduling, and the no-op guards in :class:`FluidNetwork`, plus the
kernel's ``pending`` count."""

import pytest

from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource


@pytest.fixture()
def sim():
    kernel = EventKernel()
    counters = PerfCounters()
    return kernel, FluidNetwork(kernel, counters=counters), counters


def test_same_instant_starts_coalesce_into_one_reallocation(sim):
    kernel, net, counters = sim
    r = Resource("r", 1000.0)
    for _ in range(50):
        net.start_flow([r], 1000.0)
    kernel.run(max_events=1)  # the single drain event
    assert counters.reallocations == 1
    assert counters.coalesced_mutations == 49
    for flow in net.active_flows:
        assert flow.rate_bps == pytest.approx(20.0)


def test_mixed_same_instant_mutations_coalesce(sim):
    kernel, net, counters = sim
    r = Resource("r", 1000.0)
    keep = net.start_flow([r], 1000.0)
    victim = net.start_flow([r], 1000.0)
    net.abort_flow(victim)
    r.set_background_load(1.0)
    net.notify_load_changed()
    kernel.run(max_events=1)
    assert counters.reallocations == 1
    assert keep.rate_bps == pytest.approx(500.0)  # shares with bg load only


def test_batched_rates_match_sequential_completion_times(sim):
    """Epoch batching must not change completion timing."""
    kernel, net, counters = sim
    r = Resource("r", 100.0)
    finished = {}
    net.start_flow([r], 400.0,
                   on_complete=lambda f: finished.setdefault("short", kernel.now))
    net.start_flow([r], 1000.0,
                   on_complete=lambda f: finished.setdefault("long", kernel.now))
    kernel.run()
    assert finished["short"] == pytest.approx(8.0)
    assert finished["long"] == pytest.approx(14.0)


def test_notify_load_changed_is_noop_without_flows(sim):
    kernel, net, counters = sim
    before = kernel.pending
    net.notify_load_changed()
    assert kernel.pending == before  # no drain event scheduled
    assert counters.noop_skips == 1
    assert counters.reallocations == 0


def test_drain_with_no_flows_skips_allocator(sim):
    kernel, net, counters = sim
    r = Resource("r", 100.0)
    flow = net.start_flow([r], 1000.0)
    net.abort_flow(flow)
    kernel.run()
    # One drain ran, found no flows, and skipped the allocator.
    assert counters.noop_skips == 1
    assert counters.reallocations == 0
    assert not net.active_flows


def test_unaffected_flow_keeps_completion_schedule(sim):
    """A reallocation that does not change a flow's rate must not force
    an ETA refresh for it (disjoint resources: the common case)."""
    kernel, net, counters = sim
    r1, r2 = Resource("r1", 100.0), Resource("r2", 100.0)
    net.start_flow([r1], 1000.0)
    kernel.run(max_events=1)  # drain: rate and ETA assigned
    refreshes = counters.eta_refreshes
    net.start_flow([r2], 500.0)  # disjoint: r1 flow's rate is unchanged
    kernel.run(max_events=1)
    assert counters.eta_refreshes == refreshes + 1  # only the new flow


def test_completion_event_not_rescheduled_when_eta_unchanged(sim):
    kernel, net, counters = sim
    r1, r2 = Resource("r1", 100.0), Resource("r2", 100.0)
    finished = {}
    net.start_flow([r1], 500.0,
                   on_complete=lambda f: finished.setdefault("a", kernel.now))
    kernel.run(max_events=1)
    assert counters.completion_reschedules == 1
    # A later flow on a disjoint resource with a *later* ETA must not
    # disturb the armed completion event.
    net.start_flow([r2], 5000.0,
                   on_complete=lambda f: finished.setdefault("b", kernel.now))
    kernel.run(max_events=1)
    assert counters.completion_reschedules == 1
    kernel.run()
    assert finished["a"] == pytest.approx(5.0)
    assert finished["b"] == pytest.approx(50.0)


def test_pending_counter_matches_heap_scan():
    kernel = EventKernel()
    events = [kernel.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert kernel.pending == 10
    events[3].cancel()
    events[7].cancel()
    events[7].cancel()  # double-cancel must not double-decrement
    assert kernel.pending == 8
    assert kernel.pending == sum(1 for e in kernel._heap if not e.cancelled)
    kernel.run(max_events=3)
    assert kernel.pending == 5


def test_cancel_after_fire_does_not_corrupt_pending():
    kernel = EventKernel()
    event = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.run(max_events=1)
    event.cancel()  # already fired: must be a no-op
    assert kernel.pending == 1
