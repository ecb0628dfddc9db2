"""Unit tests for background load models."""

import random

import pytest

from repro.errors import ConfigError
from repro.simnet.background import (
    MANAGED_BRIDGE_LOAD,
    VOLUNTEER_GUARD_LOAD,
    LoadModel,
    PoissonBackground,
    draw_loads,
)
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.rng import substream


def test_load_model_mean_roughly_right():
    model = LoadModel(mean=10.0)
    rng = substream(1, "load")
    samples = [model.sample(rng) for _ in range(3000)]
    mean = sum(samples) / len(samples)
    assert 9.0 < mean < 11.0
    assert all(s >= 0 for s in samples)


def test_zero_mean_load_is_zero():
    rng = substream(1, "load")
    assert LoadModel(mean=0.0).sample(rng) == 0.0


def _library_loads(rng: random.Random, models) -> list[float]:
    """The oracle: the stdlib gamma sampler, one call per model."""
    return [rng.gammavariate(m.shape, m.mean / m.shape) if m.mean > 0
            else 0.0 for m in models]


_MODELS = [LoadModel(mean=m, shape=k)
           for m in (0.0, 0.2, 0.8, 5.0, 11.0, 47.3)
           for k in (1.01, 1.5, 2.0, 3.7, 12.0)]


@pytest.mark.parametrize("seed", range(40))
def test_draw_loads_matches_gammavariate_bit_for_bit(seed):
    models = random.Random(seed).choices(_MODELS, k=300)
    ours, library = random.Random(seed), random.Random(seed)
    assert draw_loads(ours, models) == _library_loads(library, models)
    # The same uniforms were consumed, so every later draw agrees too.
    assert ours.getstate() == library.getstate()


class _Scripted(random.Random):
    """A generator whose random() returns a fixed script, in order."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def random(self):
        return self.script.pop(0)


def test_draw_loads_follows_every_branch_of_the_rejection_loop():
    model = LoadModel(mean=11.0)
    script = [
        0.0, 1e-7, 0.99999995,  # u1 outside (1e-7, 0.9999999): redrawn
        0.01, 0.01,             # rejected by both acceptance tests
        0.01, 0.2,              # accepted only by r >= log(z)
        0.3, 0.84,              # accepted by the quick squeeze test
    ]
    ours, library = _Scripted(script), _Scripted(script)
    assert draw_loads(ours, [model, model]) == _library_loads(
        library, [model, model])
    assert ours.script == library.script == []


def test_load_model_rejects_shape_at_or_below_one():
    for shape in (1.0, 0.5, 0.0, float("nan")):
        with pytest.raises(ConfigError):
            LoadModel(mean=5.0, shape=shape)


def test_volunteer_guard_busier_than_managed_bridge():
    assert VOLUNTEER_GUARD_LOAD.mean > MANAGED_BRIDGE_LOAD.mean * 5


def test_poisson_background_generates_and_slows_foreground():
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    r = Resource("r", 1000.0)
    # Offered load: 0.5 flows/s x 1000 B = 500 B/s on a 1000 B/s pipe.
    bg = PoissonBackground(kernel, net, r, rng=substream(2, "bg"),
                           lam=0.5, mean_size_bytes=1000.0)
    bg.start()
    done = []
    net.start_flow([r], 10_000.0, on_complete=lambda f: done.append(kernel.now))
    kernel.run(until=400.0)
    bg.stop()
    kernel.run(until=2000.0)
    assert bg.generated > 100
    assert done, "foreground flow should finish"
    # With competing traffic the 10s idle transfer takes measurably longer.
    assert done[0] > 10.5


def test_poisson_background_validation():
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    r = Resource("r", 1000.0)
    with pytest.raises(ValueError):
        PoissonBackground(kernel, net, r, rng=substream(1, "x"),
                          lam=0.0, mean_size_bytes=100.0)


def test_stop_cancels_pending_arrival_event():
    """Regression: stop() used to leave the already-scheduled _arrive
    event live — `kernel.pending` stayed non-zero and the event fired as
    a silent no-op (delaying a final `kernel.run()` to its timestamp)."""
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    r = Resource("r", 1000.0)
    bg = PoissonBackground(kernel, net, r, rng=substream(7, "bg"),
                           lam=0.5, mean_size_bytes=100.0)
    bg.start()
    assert kernel.pending == 1  # the first scheduled arrival
    kernel.run(until=30.0)
    assert bg.generated > 0
    before = kernel.pending
    bg.stop()
    # The pending arrival was cancelled, not left to fire as a no-op.
    assert kernel.pending == before - 1
    generated = bg.generated
    kernel.run()
    assert bg.generated == generated  # no arrivals after stop()
    assert kernel.pending == 0


def test_start_is_idempotent_while_running():
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    r = Resource("r", 1000.0)
    bg = PoissonBackground(kernel, net, r, rng=substream(8, "bg"),
                           lam=1.0, mean_size_bytes=100.0)
    bg.start()
    bg.start()  # must not schedule a second arrival chain
    assert kernel.pending == 1
    bg.stop()
    assert kernel.pending == 0


def _foreground_with_static_load() -> tuple[float, int]:
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    # A background weight of 1 gets the same share as the foreground
    # flow: 50% utilisation.
    res = Resource("r", 1_000_000.0, background_load=1.0)
    done = []
    net.start_flow([res], 10_000_000.0,
                   on_complete=lambda f: done.append(kernel.now))
    kernel.run()
    return done[0], kernel.events_fired


def _foreground_with_poisson_load(seed: int) -> tuple[float, int]:
    kernel = EventKernel()
    net = FluidNetwork(kernel)
    res = Resource("r", 1_000_000.0)
    # 5 arrivals/s of 100 kB on average: half the pipe.
    bg = PoissonBackground(kernel, net, res, rng=substream(seed, "bg"),
                           lam=5.0, mean_size_bytes=100_000.0)
    bg.start()
    kernel.run(until=60.0)  # warm the queue up
    done = []
    net.start_flow([res], 10_000_000.0,
                   on_complete=lambda f: done.append(kernel.now))
    kernel.run(until=3600.0)
    bg.stop()
    kernel.run(until=7200.0)
    assert done, "foreground flow must finish"
    return done[0] - 60.0, kernel.events_fired


def test_static_load_approximates_poisson_cross_traffic():
    """Campaigns model cross-traffic as a static background weight in
    the fair share instead of simulating other clients' flows. A 10 MB
    transfer through a 1 MB/s pipe at 50% background utilisation takes
    about as long either way, while the static model costs far fewer
    events."""
    static_t, static_events = _foreground_with_static_load()
    poisson = [_foreground_with_poisson_load(seed)[0] for seed in range(5)]
    _, poisson_events = _foreground_with_poisson_load(99)
    mean_poisson = sum(poisson) / len(poisson)
    assert static_t == pytest.approx(mean_poisson, rel=0.30)
    assert static_events * 50 < poisson_events
