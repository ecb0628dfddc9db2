"""Golden trace of the multi-class allocation and completion paths.

Every experiment and benchmark digest comes from runs in which each
fair-share allocation sees exactly one flow class, so none of them
would notice a change in multi-class water-filling arithmetic, in the
order classes freeze, or in which class completes next. This module
pins those paths: it drives :class:`FluidNetwork` through shapes where
several classes compete for shared resources and hashes ``float.hex``
of every flow's ``(state, bytes_done, remaining, started_at,
finished_at)``, plus the rate vector of one :func:`compute_fair_rates`
call on a 520-flow surge population.

A refactor that is meant to leave behaviour unchanged must leave
``DIGEST`` unchanged. There is deliberately no regeneration switch: an
intended behaviour change edits ``DIGEST`` by hand, using the new
digest the failure message prints.
"""

from __future__ import annotations

import hashlib

from repro.simnet.background import PoissonBackground
from repro.simnet.fairshare import compute_fair_rates
from repro.simnet.flow import Flow
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.rng import substream

DIGEST = "a672b63eaeabad7b39bd95070bd0982d448b75d7b75a983e499424e0ca308d49"

SEED = 14
_MBPS = 125_000.0  # bytes/second per Mbit/s
#: A small capacity alphabet, so fair shares tie between resources.
_CAPACITIES = (100.0, 200.0, 200.0, 400.0, 1000.0)


def _flow_line(flow: Flow) -> str:
    finished = "-" if flow.finished_at is None else flow.finished_at.hex()
    return " ".join((flow.state.value, flow.bytes_done.hex(),
                     flow.remaining.hex(), flow.started_at.hex(), finished))


def weighted_churn() -> list[Flow]:
    """Eight links into one bridge, three weights, every 4th flow
    aborted, and the bridge load changed after every wave."""
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    rng = substream(SEED, "multiclass", "weighted-churn")
    bridge = Resource("bridge", 40 * _MBPS, background_load=2.0)
    links = [Resource(f"link{i}", 5 * _MBPS * (1 + i % 3)) for i in range(8)]
    weights = (1.0, 2.0, 0.7)
    flows: list[Flow] = []
    for _wave in range(25):
        wave = [net.start_flow((links[i % 8], bridge), rng.uniform(5e4, 2e6),
                               weight=weights[i % 3])
                for i in range(24)]
        flows.extend(wave)
        kernel.run(until=kernel.now + rng.uniform(0.1, 0.5))
        for flow in wave[::4]:
            net.abort_flow(flow)
        bridge.set_background_load(rng.choice((0.0, 1.5, 4.0)))
        net.notify_load_changed()
        kernel.run(until=kernel.now + rng.uniform(0.2, 0.8))
    kernel.run()
    return flows


def random_topologies() -> list[Flow]:
    """Random multi-hop paths over tie-prone capacities, with starts and
    aborts interleaved between short runs of the kernel."""
    flows: list[Flow] = []
    for topology in range(8):
        rng = substream(SEED, "multiclass", "topology", topology)
        kernel = EventKernel()
        net = FluidNetwork(kernel)
        resources = [Resource(f"r{i}", rng.choice(_CAPACITIES),
                              background_load=rng.choice((0.0, 0.0, 1.0, 2.5)))
                     for i in range(rng.randint(3, 7))]
        live: list[Flow] = []
        for _step in range(60):
            if live and rng.random() < 0.3:
                net.abort_flow(live.pop(rng.randrange(len(live))))
            else:
                hops = rng.randint(1, min(4, len(resources)))
                flow = net.start_flow(rng.sample(resources, hops),
                                      rng.choice((50.0, 200.0, 800.0, 3000.0)),
                                      weight=rng.choice((1.0, 1.0, 2.0, 0.5)))
                live.append(flow)
                flows.append(flow)
            if rng.random() < 0.5:
                kernel.run(until=kernel.now + rng.uniform(0.0, 2.0))
            live = [flow for flow in live if flow.is_active]
        kernel.run()
    return flows


def poisson_background() -> list[Flow]:
    """Foreground transfers sharing a guard with Poisson arrivals."""
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    rng = substream(SEED, "multiclass", "foreground")
    guard = Resource("guard", 10 * _MBPS, background_load=1.0)
    access = Resource("access", 4 * _MBPS)
    background = PoissonBackground(
        kernel, net, guard, rng=substream(SEED, "multiclass", "poisson"),
        lam=20.0, mean_size_bytes=2e5)
    background.start()
    flows: list[Flow] = []
    for _ in range(40):
        flows.append(net.start_flow((access, guard), rng.uniform(1e5, 1e6)))
        kernel.run(until=kernel.now + rng.uniform(0.1, 0.6))
    background.stop()
    kernel.run()
    assert background.generated > 100
    return flows


def dense_surge_rates() -> list[float]:
    """One allocation of 520 flows in 24 classes behind one bridge."""
    rng = substream(SEED, "multiclass", "dense-surge")
    bridge = Resource("bridge", 40 * _MBPS, background_load=6.0)
    middles = [Resource(f"middle{i}", 80 * _MBPS, background_load=2.0)
               for i in range(6)]
    exits = [Resource(f"exit{i}", 60 * _MBPS, background_load=1.0)
             for i in range(4)]
    links = [Resource(f"link{i}", 20 * _MBPS) for i in range(8)]
    signatures = [((link, bridge, rng.choice(middles), rng.choice(exits)),
                   rng.choice((1.0, 1.0, 1.0, 2.0)))
                  for link in links for _ in range(3)]
    flows = []
    for i in range(520):
        path, weight = signatures[i % len(signatures)]
        flows.append(Flow(path, 1e9, weight=weight))
    rates = compute_fair_rates(flows)
    return [rates[flow] for flow in flows]


def trace_digest() -> str:
    h = hashlib.sha256()
    for shape in (weighted_churn, random_topologies, poisson_background):
        h.update(f"# {shape.__name__}\n".encode())
        for flow in shape():
            h.update((_flow_line(flow) + "\n").encode())
    h.update(b"# dense_surge_rates\n")
    for rate in dense_surge_rates():
        h.update((rate.hex() + "\n").encode())
    return h.hexdigest()


def test_multiclass_trace_unchanged():
    digest = trace_digest()
    assert digest == DIGEST, (
        f"multi-class flow trace changed; new digest {digest}")
