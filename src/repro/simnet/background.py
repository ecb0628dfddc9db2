"""Background traffic generation.

Two complementary mechanisms model cross-traffic:

1. **Static background load** (the default): every
   :class:`~repro.simnet.resource.Resource` carries a ``background_load``
   weight that participates in the max-min fair share. Campaigns resample
   this weight per measurement from a :class:`LoadModel`, capturing
   "the guard was busy when I measured" without simulating millions of
   other clients. :func:`draw_loads` is the one Gamma draw behind every
   resample.

2. **Explicit Poisson flows** (:class:`PoissonBackground`): real finite
   flows arriving at a resource. Heavier-weight but fully dynamic; used
   by the fair-share ablation benchmark to show the static approximation
   tracks the explicit one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError
from repro.simnet.kernel import Event, EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.rng import pareto


#: Constants of the stdlib gamma sampler (``random.LOG4`` and
#: ``random.SG_MAGICCONST``), computed the same way.
_LOG4 = math.log(4.0)
_SG_MAGICCONST = 1.0 + math.log(4.5)


@dataclass(frozen=True)
class LoadModel:
    """Distribution of the background-load weight of a resource.

    ``mean`` is the expected number of competing unit-weight flows;
    samples are gamma-distributed (shape ``k``) so load is always
    non-negative and right-skewed, like real relay utilisation. The
    shape must exceed 1, the regime :func:`draw_loads` implements.
    """

    mean: float
    shape: float = 2.0
    #: ``(alpha, ainv, bbb, ccc, beta)`` of Cheng's algorithm, computed
    #: once here instead of on every draw.
    _cheng: tuple[float, float, float, float, float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.shape > 1.0:
            raise ConfigError(
                f"load model shape must be > 1, got {self.shape!r}")
        alpha = self.shape
        ainv = math.sqrt(2.0 * alpha - 1.0)
        object.__setattr__(self, "_cheng", (
            alpha, ainv, alpha - _LOG4, alpha + ainv, self.mean / alpha))

    def sample(self, rng: random.Random) -> float:
        return draw_loads(rng, (self,))[0]


def draw_loads(rng: random.Random, models: Iterable[LoadModel]) -> list[float]:
    """One background load per model, drawn from ``rng`` in order.

    Each load is ``rng.gammavariate(model.shape, model.mean /
    model.shape)``, or 0.0 for a model whose mean is not positive. The
    loop is CPython's own gamma sampler for shape > 1 (R.C.H. Cheng,
    "The generation of Gamma variables with non-integral shape
    parameters", Applied Statistics 26(1), 1977), unchanged from 3.11
    to 3.13: it calls ``rng.random()`` the same number of times in the
    same order and does the same float operations, so every load and
    every later draw from ``rng`` is bit-identical to the library
    call's. Only the per-draw constants are hoisted into the model.
    """
    rand = rng.random
    log, exp = math.log, math.exp
    loads = []
    for model in models:
        if model.mean <= 0:
            loads.append(0.0)
            continue
        alpha, ainv, bbb, ccc, beta = model._cheng
        while True:
            u1 = rand()
            if not 1e-7 < u1 < 0.9999999:
                continue
            u2 = 1.0 - rand()
            v = log(u1 / (1.0 - u1)) / ainv
            x = alpha * exp(v)
            z = u1 * u1 * u2
            r = bbb + ccc * v - x
            if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                loads.append(x * beta)
                break
    return loads


#: Volunteer-operated guard relays carry most of Tor's client traffic.
VOLUNTEER_GUARD_LOAD = LoadModel(mean=11.0)
#: Middle/exit relays: contended, but traffic spreads across many.
VOLUNTEER_RELAY_LOAD = LoadModel(mean=5.0)
#: Tor-managed PT bridges see few clients (PTs are used only when the
#: default way into Tor is blocked) — the paper's Section 4.2.1 insight.
MANAGED_BRIDGE_LOAD = LoadModel(mean=0.8)
#: Self-hosted ("private") PT servers serve only the experimenters.
PRIVATE_BRIDGE_LOAD = LoadModel(mean=0.3)
#: Destination web servers: effectively unloaded for our purposes.
ORIGIN_SERVER_LOAD = LoadModel(mean=0.2)


class PoissonBackground:
    """Explicit Poisson arrivals of Pareto-sized flows on one resource.

    Used in ablation studies; arrival rate ``lam`` (flows/s) and mean
    flow size determine offered load.
    """

    def __init__(self, kernel: EventKernel, net: FluidNetwork, resource: Resource, *,
                 rng: random.Random, lam: float, mean_size_bytes: float,
                 pareto_shape: float = 1.5) -> None:
        if lam <= 0 or mean_size_bytes <= 0:
            raise ValueError("arrival rate and mean size must be positive")
        self.kernel = kernel
        self.net = net
        self.resource = resource
        self.rng = rng
        self.lam = lam
        self.pareto_shape = pareto_shape
        # Scale chosen so the Pareto mean equals mean_size_bytes.
        self.scale = mean_size_bytes * (pareto_shape - 1.0) / pareto_shape
        self.active = 0
        self.generated = 0
        self._running = False
        self._next_arrival: Event | None = None

    def start(self) -> None:
        """Begin generating arrivals."""
        if self._running:
            return  # one arrival chain only
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating new arrivals (in-flight flows finish).

        The already-scheduled next arrival is cancelled rather than left
        to fire as a silent no-op, so ``kernel.pending`` drops and a
        final ``kernel.run()`` does not wait out a dead event.
        """
        self._running = False
        if self._next_arrival is not None:
            self._next_arrival.cancel()
            self._next_arrival = None

    def _schedule_next(self) -> None:
        if not self._running:
            return
        gap = -math.log(1.0 - self.rng.random()) / self.lam
        self._next_arrival = self.kernel.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        self._next_arrival = None
        if not self._running:  # pragma: no cover - stop() cancels instead
            return
        size = pareto(self.rng, self.pareto_shape, self.scale)
        self.generated += 1
        self.active += 1
        self.net.start_flow((self.resource,), size,
                            on_complete=lambda _f: self._departed(),
                            on_abort=lambda _f: self._departed())
        self._schedule_next()

    def _departed(self) -> None:
        self.active -= 1
