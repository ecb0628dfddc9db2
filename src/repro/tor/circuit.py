"""Tor circuits: construction latency, RTT chains, and flow paths.

A circuit is three hops (entry, middle, exit). Building one costs a
CREATE round trip to the entry plus an EXTEND round trip per additional
hop — each a full echo through all hops built so far — plus queueing at
every relay. Once built, the circuit exposes:

* ``rtt_sample`` — one application-layer round trip through the circuit
  to a destination (used for request/response latency);
* ``resource_path`` — the capacity resources a stream's bytes traverse;
* ``flow_control_resource`` — the SENDME window/RTT throughput ceiling
  as a sharable resource, so parallel streams on one circuit contend for
  the circuit window exactly like real Tor streams do.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from repro.simnet.geo import City, base_rtt
from repro.simnet.latency import LatencyModel
from repro.simnet.resource import Resource
from repro.simnet.rng import left_sum
from repro.simnet.session import Delay
from repro.tor.cell import circuit_throughput_cap_bps, stream_throughput_cap_bps
from repro.tor.relay import Relay

_circuit_ids = itertools.count(1)

#: ntor handshake computation per CREATE/EXTEND, client+relay side.
_HANDSHAKE_CPU_S = 0.003


class Circuit:
    """A built (or buildable) three-hop circuit.

    ``origin`` is the chain of locations *before* the first hop: for a
    plain Tor client just ``[client_city]``; for circuits carried over a
    pluggable transport it includes the detour (CDN, DoH resolver, IM
    datacentre) and the PT server, so CREATE/EXTEND round trips and all
    per-request RTTs traverse the transport exactly like real cells do.
    """

    def __init__(self, origin: City | Sequence[City], hops: Sequence[Relay],
                 latency: LatencyModel, rng: random.Random) -> None:
        self.cid = next(_circuit_ids)
        if isinstance(origin, City):
            origin = [origin]
        self.origin = tuple(origin)
        self.hops = tuple(hops)
        self.latency = latency
        self.rng = rng
        self.built = False
        self.built_at: Optional[Optional[float]] = None
        self._flow_ctrl: Optional[Resource] = None

    @property
    def client_city(self) -> City:
        return self.origin[0]

    # -- latency ------------------------------------------------------

    def _chain_cities(self, upto: int, dest: Optional[City] = None) -> list[City]:
        cities = list(self.origin) + [h.city for h in self.hops[:upto]]
        if dest is not None:
            cities.append(dest)
        return cities

    def build_process(self) -> Iterator:
        """Generator: CREATE + EXTENDs, with per-relay queueing delays."""
        total = 0.0
        for i in range(1, len(self.hops) + 1):
            # Echo through every hop built so far.
            total += self.latency.chain_rtt(self._chain_cities(i), self.rng)
            total += _HANDSHAKE_CPU_S
            # CREATE/EXTEND cells ride the relay's control path, which
            # queues a little less than the data path.
            total += 0.7 * self.hops[i - 1].processing_delay(self.rng)
        yield Delay(total)
        self.built = True

    def rtt_sample(self, dest: Optional[City] = None) -> float:
        """One request/response round trip through the whole circuit."""
        rtt = self.latency.chain_rtt(self._chain_cities(len(self.hops), dest), self.rng)
        for hop in self.hops:
            rtt += hop.processing_delay(self.rng) * 0.5
        return rtt

    def base_rtt_estimate(self, dest: Optional[City] = None) -> float:
        """Deterministic RTT estimate (no jitter) for capacity planning."""
        cities = self._chain_cities(len(self.hops), dest)
        return left_sum(base_rtt(cities[i], cities[i + 1])
                        for i in range(len(cities) - 1))

    # -- capacity -----------------------------------------------------

    def flow_control_resource(self) -> Resource:
        """The circuit-window throughput ceiling, shared by its streams."""
        if self._flow_ctrl is None:
            cap = circuit_throughput_cap_bps(max(self.base_rtt_estimate(), 0.05))
            self._flow_ctrl = Resource(f"circwin:{self.cid}", cap)
        return self._flow_ctrl

    def stream_cap_resource(self, dest: Optional[City] = None) -> Resource:
        """A fresh per-stream window ceiling (one per stream)."""
        cap = stream_throughput_cap_bps(max(self.base_rtt_estimate(dest), 0.05))
        return Resource(f"streamwin:{self.cid}", cap)

    def resource_path(self, extra: Sequence[Resource] = ()) -> tuple[Resource, ...]:
        """Resources a stream traverses: relays + circuit window + extras.

        Deduplicates while preserving order, so colocated hops that
        share one uplink are only charged once.
        """
        path = [h.resource for h in self.hops]
        path.append(self.flow_control_resource())
        path.extend(extra)
        return tuple(dict.fromkeys(path))

    def same_origin(self, origin: Sequence[City]) -> bool:
        """Whether this circuit was built behind the same origin chain."""
        return self.origin == tuple(origin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "->".join(h.nickname for h in self.hops)
        return f"<Circuit #{self.cid} {self.client_city.name}->{names} built={self.built}>"
