"""Synthetic Tor network consensus.

Generates a deterministic population of relays whose geography and
bandwidth distribution match the coarse statistics the paper relies on:
relays concentrate in Europe and North America (which is why Bangalore
clients see higher access times, Section 4.5), guard/exit flags cover a
subset of relays, and bandwidths are heavy-tailed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import ConfigError
from repro.simnet.background import (
    VOLUNTEER_GUARD_LOAD,
    VOLUNTEER_RELAY_LOAD,
    LoadModel,
    draw_loads,
)
from repro.simnet.geo import Cities
from repro.simnet.rng import bounded_lognormal, substream, weighted_choice
from repro.tor.relay import Flag, Relay, RelaySpec
from repro.units import mbit

#: Per flag: candidate relays, their weights, the running sum of the
#: weights, and their fingerprints.
_FlagLists = tuple[list[Relay], list[float], list[float], list[str]]


@dataclass(frozen=True)
class ConsensusParams:
    """Knobs for synthetic consensus generation."""

    n_relays: int = 200
    guard_fraction: float = 0.45
    exit_fraction: float = 0.35
    median_bandwidth_bps: float = mbit(100)
    bandwidth_sigma: float = 0.9
    min_bandwidth_bps: float = mbit(2)
    max_bandwidth_bps: float = mbit(800)


class Consensus:
    """A fixed set of relays plus bandwidth-weighted selection helpers."""

    def __init__(self, relays: list[Relay]) -> None:
        if not relays:
            raise ConfigError("consensus must contain at least one relay")
        self.relays = relays
        self._by_fingerprint = {r.fingerprint: r for r in relays}
        # Flag-filtered candidate/weight/fingerprint lists are immutable
        # after construction (flags never change post-consensus), and
        # path selection draws from them once per hop per measurement —
        # cache them instead of re-filtering all relays through enum ops.
        self._flag_cache: dict[Flag, _FlagLists] = {}

    # -- lookup --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.relays)

    def by_fingerprint(self, fingerprint: str) -> Relay:
        try:
            return self._by_fingerprint[fingerprint]
        except KeyError:
            raise ConfigError(f"no relay with fingerprint {fingerprint!r}") from None

    def with_flag(self, flag: Flag) -> list[Relay]:
        # Unchanged semantics: Flag.NONE matches nothing here (sample()
        # is the one that treats NONE as "any relay").
        return [r for r in self.relays if r.has_flag(flag)]

    def _flag_lists(self, flag: Flag) -> _FlagLists:
        cached = self._flag_cache.get(flag)
        if cached is None:
            candidates = [r for r in self.relays
                          if flag is Flag.NONE or r.has_flag(flag)]
            weights = [r.bandwidth_bps for r in candidates]
            # Cumulative weights share weighted_choice's left-to-right
            # summation, so a bisect draw picks the identical relay for
            # the identical rng.random() value.
            cum = list(accumulate(weights))
            fingerprints = [r.fingerprint for r in candidates]
            cached = self._flag_cache[flag] = (
                candidates, weights, cum, fingerprints)
        return cached

    def guards(self) -> list[Relay]:
        return self.with_flag(Flag.GUARD)

    def exits(self) -> list[Relay]:
        return self.with_flag(Flag.EXIT)

    # -- weighted sampling ----------------------------------------------

    def sample(self, rng: random.Random, *, flag: Flag = Flag.NONE,
               exclude: frozenset[str] | set[str] = frozenset()) -> Relay:
        """Bandwidth-weighted relay choice, honouring flag/exclusions.

        Mirrors (coarsely) Tor's bandwidth-weighted path selection: a
        relay's selection probability is proportional to its consensus
        bandwidth.
        """
        candidates, weights, cum, fingerprints = self._flag_lists(flag)
        if exclude:
            if exclude.issuperset(fingerprints):
                raise ConfigError(f"no relay candidates for flag={flag}")
            return weighted_choice(rng, candidates, weights,
                                   fingerprints, exclude)
        if not candidates:
            raise ConfigError(f"no relay candidates for flag={flag}")
        index = bisect_right(cum, rng.random() * cum[-1])
        return candidates[index if index < len(candidates) else -1]

    def resample_all_loads(self, rng: random.Random) -> None:
        """Refresh every relay's background load (new measurement epoch).

        One :func:`draw_loads` call draws the relays' loads in consensus
        order, each from the relay's current load model, exactly as a
        :meth:`Relay.resample_load` per relay would; a Gamma load is
        never negative, so it is stored without the setter's check.
        """
        relays = self.relays
        loads = draw_loads(rng, [relay.spec.load_model for relay in relays])
        for relay, load in zip(relays, loads):
            relay.resource.background_load = load


def generate_consensus(seed: int, params: ConsensusParams | None = None) -> Consensus:
    """Deterministically generate a consensus for a root seed."""
    params = params or ConsensusParams()
    if params.n_relays < 3:
        raise ConfigError("need at least 3 relays for a circuit")
    rng = substream(seed, "consensus")
    sites = Cities.relay_sites()
    cities = [c for c, _ in sites]
    weights = [w for _, w in sites]

    relays: list[Relay] = []
    for index in range(params.n_relays):
        city = weighted_choice(rng, cities, weights)
        bandwidth = bounded_lognormal(
            rng, params.median_bandwidth_bps, params.bandwidth_sigma,
            lo=params.min_bandwidth_bps, hi=params.max_bandwidth_bps)
        flags = Flag.FAST
        if rng.random() < params.guard_fraction:
            flags |= Flag.GUARD | Flag.STABLE
        if rng.random() < params.exit_fraction:
            flags |= Flag.EXIT
        base = VOLUNTEER_GUARD_LOAD if flags & Flag.GUARD else VOLUNTEER_RELAY_LOAD
        # Tor's path selection is bandwidth-weighted, so client traffic
        # lands on relays in proportion to their capacity: a fat guard
        # carries proportionally more flows and offers the same
        # per-client share as a thin one.
        load = LoadModel(
            mean=base.mean * bandwidth / params.median_bandwidth_bps,
            shape=base.shape)
        spec = RelaySpec(
            nickname=f"relay{index:04d}",
            fingerprint=f"{rng.getrandbits(160):040x}",
            city=city,
            bandwidth_bps=bandwidth,
            flags=flags,
            load_model=load,
        )
        relays.append(Relay(spec))

    # Guarantee at least one guard and one exit exist.
    if not any(r.has_flag(Flag.GUARD) for r in relays):
        relays[0].spec.flags |= Flag.GUARD
    if not any(r.has_flag(Flag.EXIT) for r in relays):
        relays[-1].spec.flags |= Flag.EXIT
    consensus = Consensus(relays)
    consensus.resample_all_loads(substream(seed, "consensus", "initial-load"))
    return consensus
