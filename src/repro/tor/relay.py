"""Tor relays and bridges.

A relay is a forwarding node with finite capacity (a
:class:`~repro.simnet.resource.Resource`) and a *load model* describing
how much competing client traffic it typically carries. Volunteer
relays are busy; Tor-managed PT bridges are not — the asymmetry behind
the paper's Section 4.2.1 finding.

Bridges are entry nodes distributed outside the public consensus; PT
servers in the paper's "set 1" (obfs4, meek, conjure, webtunnel, dnstt)
are bridges that also act as the circuit's first hop.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.simnet.background import (
    MANAGED_BRIDGE_LOAD,
    PRIVATE_BRIDGE_LOAD,
    VOLUNTEER_RELAY_LOAD,
    LoadModel,
)
from repro.simnet.geo import City
from repro.simnet.resource import Resource
from repro.simnet.rng import bounded_lognormal
from repro.units import mbit


class Flag(enum.Flag):
    """Consensus flags relevant to path selection."""

    NONE = 0
    GUARD = enum.auto()
    EXIT = enum.auto()
    FAST = enum.auto()
    STABLE = enum.auto()


@dataclass
class RelaySpec:
    """Static description of a relay as it would appear in a consensus."""

    nickname: str
    fingerprint: str
    city: City
    bandwidth_bps: float
    flags: Flag
    load_model: LoadModel = field(default_factory=lambda: VOLUNTEER_RELAY_LOAD)
    managed: bool = False  # operated/optimised by the Tor project


class Relay:
    """A live relay: spec + shared capacity resource."""

    def __init__(self, spec: RelaySpec) -> None:
        self.spec = spec
        self.resource = Resource(
            name=f"relay:{spec.nickname}",
            capacity_bps=spec.bandwidth_bps,
            background_load=spec.load_model.mean,
        )

    # -- convenience accessors ---------------------------------------

    @property
    def nickname(self) -> str:
        return self.spec.nickname

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint

    @property
    def city(self) -> City:
        return self.spec.city

    @property
    def bandwidth_bps(self) -> float:
        return self.spec.bandwidth_bps

    @property
    def flags(self) -> Flag:
        return self.spec.flags

    def has_flag(self, flag: Flag) -> bool:
        return bool(self.spec.flags & flag)

    def resample_load(self, rng: random.Random) -> float:
        """Draw a fresh background load (one measurement's conditions)."""
        load = self.spec.load_model.sample(rng)
        self.resource.set_background_load(load)
        return load

    def processing_delay(self, rng: random.Random) -> float:
        """Per-cell-batch queueing/crypto delay at this relay.

        Busier relays queue longer; this is the dominant reason circuit
        build through volunteer relays takes noticeably longer than raw
        propagation time. Load is normalised by capacity so a fat relay
        carrying proportionally more clients queues like a thin one —
        queueing tracks *utilisation*, not client count.
        """
        utilisation = (self.resource.background_load
                       * mbit(100) / self.spec.bandwidth_bps)
        base = 0.004 + 0.019 * utilisation
        return bounded_lognormal(rng, base, 0.5, lo=0.001, hi=3.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relay {self.nickname} {self.city.name} {self.flags}>"


class Bridge(Relay):
    """An entry bridge (PT server). Guard-capable by construction."""

    def __init__(self, name: str, city: City, bandwidth_bps: float, *,
                 managed: bool, load_model: LoadModel | None = None,
                 fingerprint: str = "") -> None:
        if load_model is None:
            load_model = MANAGED_BRIDGE_LOAD if managed else PRIVATE_BRIDGE_LOAD
        spec = RelaySpec(
            nickname=name,
            fingerprint=fingerprint or f"bridge-{name}",
            city=city,
            bandwidth_bps=bandwidth_bps,
            flags=Flag.GUARD | Flag.FAST | Flag.STABLE,
            load_model=load_model,
            managed=managed,
        )
        super().__init__(spec)
        self.resource.name = f"bridge:{name}"


def make_colocated_guard_and_bridge(city: City, bandwidth_bps: float, *,
                                    load_model: LoadModel | None = None,
                                    name: str = "colocated") -> tuple[Relay, Bridge]:
    """A guard relay and a PT bridge sharing one host (one uplink).

    Used by the paper's fixed-circuit experiments (Sections 4.2.1, 5.2):
    to compare vanilla Tor and a PT with an *identical* first hop, the
    authors ran their own guard and their own PT server on the same
    cloud machine. Sharing the :class:`Resource` reproduces that.
    """
    model = load_model if load_model is not None else PRIVATE_BRIDGE_LOAD
    guard_spec = RelaySpec(
        nickname=f"{name}-guard",
        fingerprint=f"{name}-guard-fp",
        city=city,
        bandwidth_bps=bandwidth_bps,
        flags=Flag.GUARD | Flag.FAST | Flag.STABLE,
        load_model=model,
    )
    guard = Relay(guard_spec)
    bridge = Bridge(f"{name}-bridge", city, bandwidth_bps, managed=False,
                    load_model=model)
    bridge.resource = guard.resource  # same physical uplink
    return guard, bridge
