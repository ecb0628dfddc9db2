"""Microbenchmarks for the incremental fair-share allocation engine.

Two scenarios pin the allocator work:

* **dense surge** — a Snowflake-surge-style population: hundreds of
  concurrent flows funnelling through one bridge plus shared relay
  links, reallocated once per event. The persistent allocator must beat
  the from-scratch reference water-filling
  (:func:`compute_fair_rates_reference`, the test oracle) by at least
  5x here.
* **churn storm** — start/abort/complete storms through the full
  :class:`FluidNetwork`, exercising epoch batching, per-class progress
  accounting, and per-class completion scheduling on top of the
  allocator itself.

Perf-counter totals are printed with each benchmark so regressions in
collapsing ratio or coalescing show up in CI output, not just wall
clock. Run with ``--benchmark-disable`` for a fast smoke check.
"""

from __future__ import annotations

import time

from repro.simnet.fairshare import (
    FairShareAllocator,
    compute_fair_rates,
    compute_fair_rates_reference,
)
from repro.simnet.flow import Flow
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.resource import Resource
from repro.simnet.rng import substream
from repro.units import seconds_to_ms

_MBPS = 125_000.0  # bytes/second per Mbit/s


def _dense_surge_population(n_flows: int = 520):
    """A surge-like flow population: few signatures, many members.

    One overloaded bridge, a handful of middle/exit relays, and client
    access links shared by cohorts of flows — the shape of a campaign
    replaying the Iran-unrest Snowflake timeline with hundreds of
    concurrent background users.
    """
    rng = substream(2023, "bench", "dense-surge")
    bridge = Resource("bridge", 40 * _MBPS, background_load=6.0)
    middles = [Resource(f"middle{i}", 80 * _MBPS, background_load=2.0)
               for i in range(6)]
    exits = [Resource(f"exit{i}", 60 * _MBPS, background_load=1.0)
             for i in range(4)]
    links = [Resource(f"link{i}", 20 * _MBPS) for i in range(8)]
    signatures = []
    for link in links:
        for _ in range(3):  # ~24 distinct (path, weight) classes
            path = (link, bridge, rng.choice(middles), rng.choice(exits))
            weight = rng.choice([1.0, 1.0, 1.0, 2.0])
            signatures.append((path, weight))
    flows = []
    for i in range(n_flows):
        path, weight = signatures[i % len(signatures)]
        flows.append(Flow(path, 1e9, weight=weight))
    return flows


def test_perf_dense_surge_allocator_speedup(benchmark):
    """>=5x over the reference allocator on 500+ concurrent flows.

    Models the simnet hot path: the flow population is stable between
    events, and every arrival/completion triggers one reallocation. The
    old engine rebuilt everything per event; the persistent allocator
    pays membership maintenance once and then one O(R) bottleneck scan
    per water-filling round plus the rate fan-out.
    """
    flows = _dense_surge_population()
    calls = 30
    counters = PerfCounters()

    # Verify both engines agree on this population before timing it.
    reference_rates = compute_fair_rates_reference(flows)
    optimized_rates = compute_fair_rates(flows)
    for flow in flows:
        assert abs(optimized_rates[flow] - reference_rates[flow]) <= \
            1e-9 * max(1.0, reference_rates[flow])

    allocator = FairShareAllocator()
    for flow in flows:
        allocator.add_flow(flow)

    def _time_reference() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            compute_fair_rates_reference(flows)
        return time.perf_counter() - start

    def _time_optimized() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            # One event-driven reallocation: water-fill + rate fan-out.
            for cls in allocator.allocate(counters):
                rate = cls.rate
                for flow in cls.members:
                    flow.rate_bps = rate
        return time.perf_counter() - start

    def run():
        # Best-of-3 per engine: the optimized window is ~2ms, so a
        # single scheduler stall on a shared CI runner must not flip
        # the speedup assertion.
        ref_s = min(_time_reference() for _ in range(3))
        opt_s = min(_time_optimized() for _ in range(3))
        return ref_s, opt_s

    ref_s, opt_s = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = ref_s / opt_s
    print(f"\ndense surge ({len(flows)} flows, {calls} reallocations):")
    print(f"  reference: {seconds_to_ms(ref_s):8.1f} ms")
    print(f"  optimized: {seconds_to_ms(opt_s):8.1f} ms   speedup: {speedup:.1f}x")
    print(counters.describe())
    assert counters.flows_per_class > 10.0  # collapsing engaged
    assert speedup >= 5.0, f"dense-surge speedup {speedup:.1f}x < 5x"


def _run_churn_storm() -> tuple[float, PerfCounters]:
    """Start/finish storms through the full network stack."""
    counters = PerfCounters()
    kernel = EventKernel()
    net = FluidNetwork(kernel, counters=counters)
    rng = substream(2023, "bench", "churn")
    bridge = Resource("bridge", 40 * _MBPS, background_load=4.0)
    links = [Resource(f"link{i}", 20 * _MBPS) for i in range(8)]
    start = time.perf_counter()
    for wave in range(60):
        doomed = []
        for i in range(40):
            link = links[i % len(links)]
            flow = net.start_flow((link, bridge), rng.uniform(5e4, 5e6))
            if i % 4 == 0:
                doomed.append(flow)
        kernel.run(until=kernel.now + 0.25)
        for flow in doomed:  # simulated user cancellations
            net.abort_flow(flow)
        kernel.run(until=kernel.now + 0.75)
    kernel.run()
    return time.perf_counter() - start, counters


def test_perf_churn_storm_network(benchmark):
    """End-to-end start/abort/complete storm: epoch batching coalesces
    the same-instant mutations and accounting stays per class."""
    elapsed, counters = benchmark.pedantic(_run_churn_storm, rounds=1,
                                           iterations=1)
    print(f"\nchurn storm (2400 flows, start/abort waves): "
          f"{seconds_to_ms(elapsed):8.1f} ms")
    print(counters.describe())
    # Epoch batching: each 40-flow wave coalesces into few reallocations.
    assert counters.coalesced_mutations > counters.reallocations
    # Per-class accounting took the per-event cost from O(flows) to
    # O(classes): ETA refreshes track classes now, far below the flow
    # totals the old fan-out re-touched every event.
    assert counters.eta_refreshes < counters.flows_allocated / 20
