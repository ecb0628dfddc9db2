"""Pluggable-transport base classes.

Each PT is described by:

* a **category** (the paper's Section 2 taxonomy: proxy-layer,
  tunneling, mimicry, fully encrypted) — the communication primitive
  that both hides the traffic and bounds the performance;
* an **architecture set** (Section 4.1): whether the PT server is the
  circuit's first hop (set 1), a separate hop before the client's guard
  (set 2), or the PT client talks straight to a PT-server-side Tor
  client (set 3);
* :class:`PTParams` — quantitative behaviour: handshake cost, per-request
  latency, byte overhead, throughput ceiling, stream limits, and the
  failure processes behind the paper's reliability findings (hazard
  rate, proxy-session lifetime, rate-limit byte budget, connect
  failures).

:class:`TorBackedChannel` turns those parameters into a concrete
:class:`~repro.web.types.TransportChannel`: it performs the PT
handshake, builds the Tor circuit through the right entry with the
right origin chain, then serves requests whose latency, throughput and
failures follow the parameterised model.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from repro.errors import ChannelFailed, TransferAborted
from repro.simnet.background import LoadModel
from repro.simnet.geo import City
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.rng import bounded_lognormal
from repro.simnet.session import Delay, GetTime, Transfer
from repro.tor.cell import CELL_OVERHEAD_FACTOR, circuit_throughput_cap_bps
from repro.tor.client import TorClient
from repro.tor.relay import Bridge, Relay
from repro.units import mbit
from repro.web.server import OriginServer
from repro.web.types import RequestResult


class Category(enum.Enum):
    """The paper's PT taxonomy (Section 2)."""

    PROXY_LAYER = "proxy layer"
    TUNNELING = "tunneling"
    MIMICRY = "mimicry"
    FULLY_ENCRYPTED = "fully encrypted"
    BASELINE = "baseline"  # vanilla Tor, no PT


class ArchSet(enum.IntEnum):
    """PT implementation sets (Section 4.1)."""

    SERVER_IS_GUARD = 1
    SEPARATE_PT_SERVER = 2
    PT_CLIENT_DIRECT = 3
    NONE = 0  # vanilla Tor


@dataclass(frozen=True)
class PTParams:
    """Quantitative behaviour of one transport."""

    # -- connection establishment ------------------------------------
    handshake_rtts: float = 1.0          # client<->PT-server round trips
    handshake_extra_median_s: float = 0.0  # broker/registration/rendezvous
    handshake_extra_sigma: float = 0.4
    connect_failure_prob: float = 0.0    # immediate session failures

    # -- per request ---------------------------------------------------
    request_rtts: float = 2.0            # stream BEGIN + GET round trips
    request_extra_median_s: float = 0.0  # polling/automaton/IM relay time
    request_extra_sigma: float = 0.5

    # -- data path -------------------------------------------------------
    overhead_factor: float = 1.0         # byte expansion on the wire
    throughput_cap_bps: Optional[float] = None  # primitive's hard ceiling
    max_parallel_streams: int = 6
    supports_browser: bool = True

    # -- failure processes -------------------------------------------
    hazard_per_s: float = 0.0            # exp. failure intensity (time)
    session_lifetime_median_s: Optional[float] = None  # proxy churn
    session_lifetime_sigma: float = 0.6
    byte_budget_median: Optional[float] = None  # bytes before ban/stall
    byte_budget_sigma: float = 1.0

    # -- infrastructure -------------------------------------------------
    bridge_bandwidth_bps: float = mbit(400)      # Tor-managed server
    private_bridge_bandwidth_bps: float = mbit(100)  # self-hosted VPS
    bridge_load: Optional[LoadModel] = None      # None -> managed/private default


#: Distribution hook: PT-specific per-request latency (e.g. marionette's
#: automaton traversal) — receives the channel RNG, returns seconds.
ExtraSampler = Callable[[random.Random], float]


@dataclass
class Detour:
    """An intermediary the traffic crosses before the PT server.

    Examples: meek's fronting CDN, dnstt's DoH recursive resolver,
    camoufler's IM datacentre, snowflake's volunteer proxy.
    """

    city: City
    resource: Optional[Resource] = None


@dataclass
class TransportContext:
    """World facilities handed to a transport at install time."""

    kernel: EventKernel
    net: FluidNetwork
    seed: int
    pt_server_city: City
    use_private_servers: bool = False


class PluggableTransport:
    """Base class for the twelve PTs plus the vanilla-Tor baseline."""

    #: Subclasses override these class attributes.
    name: str = "base"
    category: Category = Category.BASELINE
    arch_set: ArchSet = ArchSet.NONE
    params: PTParams = PTParams()
    description: str = ""
    #: Tor-managed default servers exist (obfs4/meek/snowflake/conjure).
    has_managed_server: bool = True
    #: Whether the experimenters can host their own server (meek needs a
    #: fronting CDN, conjure an ISP — those cannot be self-hosted).
    can_self_host: bool = True

    def __init__(self, params: Optional[PTParams] = None) -> None:
        if params is not None:
            self.params = params
        self.ctx: Optional[TransportContext] = None
        self.bridge: Optional[Bridge] = None

    # -- installation ---------------------------------------------------

    def install(self, ctx: TransportContext) -> None:
        """Create the PT's server-side infrastructure in the world."""
        self.ctx = ctx
        self.bridge = self._make_bridge(ctx)

    def _make_bridge(self, ctx: TransportContext) -> Optional[Bridge]:
        wants_private = ctx.use_private_servers and self.can_self_host
        managed = self.has_managed_server and not wants_private
        bandwidth = (self.params.bridge_bandwidth_bps if managed
                     else self.params.private_bridge_bandwidth_bps)
        city = self._bridge_city(ctx, managed)
        return Bridge(f"{self.name}-server", city, bandwidth, managed=managed,
                      load_model=self.params.bridge_load)

    def _bridge_city(self, ctx: TransportContext, managed: bool) -> City:
        """Managed default servers sit where Tor hosts them; self-hosted
        ones wherever the experiment places its server VPS."""
        from repro.simnet.geo import Cities
        return Cities.FRANKFURT if managed else ctx.pt_server_city

    def resample_bridge_load(self, rng: random.Random) -> None:
        """Fresh bridge load for a new measurement."""
        if self.bridge is not None:
            self.bridge.resample_load(rng)

    # -- channels ---------------------------------------------------------

    def detours(self, client: TorClient, rng: random.Random) -> list[Detour]:
        """Intermediaries between client and PT server (default: none)."""
        return []

    def request_extra_sampler(self) -> Optional[ExtraSampler]:
        """Override for non-lognormal per-request latency models."""
        return None

    def create_channel(self, client: TorClient, server: OriginServer,
                       rng: random.Random, *,
                       entry_override: Optional[Relay] = None) -> "TorBackedChannel":
        """Open a session of this transport from ``client`` to ``server``.

        ``entry_override`` substitutes the circuit entry (or, for
        sets 2/3, the PT hop) — used by the private-server and
        fixed-circuit experiments.
        """
        if self.ctx is None:
            raise ChannelFailed(f"transport {self.name} not installed")
        return TorBackedChannel(self, client, server, rng,
                                entry_override=entry_override)

    def with_params(self, **overrides) -> "PluggableTransport":
        """A copy of this transport with modified parameters."""
        clone = type(self)(replace(self.params, **overrides))
        if self.ctx is not None:
            clone.install(self.ctx)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PT {self.name} ({self.category.value}, set {int(self.arch_set)})>"


class TorBackedChannel:
    """Generic PT channel: PT machinery + Tor circuit + failure model."""

    def __init__(self, transport: PluggableTransport, client: TorClient,
                 server: OriginServer, rng: random.Random, *,
                 entry_override: Optional[Relay] = None) -> None:
        ctx = transport.ctx
        assert ctx is not None
        self.transport = transport
        self.params = transport.params
        self.kernel = ctx.kernel
        self.client = client
        self.server = server
        self.rng = rng
        self.detour_list = transport.detours(client, rng)
        self._extra_sampler = transport.request_extra_sampler()

        bridge = transport.bridge
        if entry_override is not None:
            bridge = entry_override  # experiment-controlled first hop
        self.bridge = bridge

        # Architecture wiring (Section 4.1).
        if transport.arch_set is ArchSet.SERVER_IS_GUARD and bridge is not None:
            self.circuit_entry: Optional[Relay] = bridge
            self.pt_hop: Optional[Relay] = None
        elif transport.arch_set in (ArchSet.SEPARATE_PT_SERVER,
                                    ArchSet.PT_CLIENT_DIRECT):
            self.circuit_entry = None      # client's consensus guard
            self.pt_hop = bridge
        else:  # vanilla
            self.circuit_entry = entry_override
            self.pt_hop = None

        self.circuit = None
        self.connected = False
        self.fails_at: Optional[float] = None
        self._byte_budget: Optional[float] = None  # wire bytes remaining
        self._cap_resource: Optional[Resource] = None
        if self.params.throughput_cap_bps is not None:
            self._cap_resource = Resource(
                f"cap:{transport.name}", self.params.throughput_cap_bps)
        self._window_resource: Optional[Resource] = None

    # -- protocol surface ------------------------------------------------

    @property
    def max_parallel_streams(self) -> int:
        return self.params.max_parallel_streams

    @property
    def supports_browser(self) -> bool:
        return self.params.supports_browser

    # -- geometry helpers -----------------------------------------------

    def _origin_prefix(self) -> list[City]:
        """Locations between the client and the circuit's first hop."""
        prefix = [d.city for d in self.detour_list]
        if self.pt_hop is not None:
            prefix.append(self.pt_hop.city)
        return prefix

    def _prefix_resources(self) -> list[Resource]:
        resources = [self.client.access_resource]
        resources.extend(d.resource for d in self.detour_list
                         if d.resource is not None)
        if self.pt_hop is not None:
            resources.append(self.pt_hop.resource)
        return resources

    def _chain_rtt(self) -> float:
        """One sampled end-to-end round trip (client..exit..server)."""
        assert self.circuit is not None
        rtt = self.circuit.rtt_sample(self.server.city)
        if self.pt_hop is not None:
            rtt += self.pt_hop.processing_delay(self.rng) * 0.5
        return rtt

    def _handshake_rtt(self) -> float:
        """One round trip from client to the PT server (not the circuit)."""
        cities = [self.client.city] + [d.city for d in self.detour_list]
        if self.pt_hop is not None:
            cities.append(self.pt_hop.city)
        elif self.circuit_entry is not None:
            cities.append(self.circuit_entry.city)
        else:
            cities.append(self.client.guards.current().city)
        return self.client.latency.chain_rtt(cities, self.rng)

    # -- connection -----------------------------------------------------

    def connect_process(self) -> Iterator:
        """PT handshake, circuit build, failure-process arming."""
        params = self.params
        if params.connect_failure_prob > 0 and \
                self.rng.random() < params.connect_failure_prob:
            yield Delay(bounded_lognormal(self.rng, 2.0, 0.5, lo=0.2, hi=20.0))
            raise ChannelFailed(f"{self.transport.name}-connect-refused")

        handshake = params.handshake_rtts * self._handshake_rtt()
        if params.handshake_extra_median_s > 0:
            handshake += bounded_lognormal(
                self.rng, params.handshake_extra_median_s,
                params.handshake_extra_sigma, lo=0.0, hi=60.0)
        yield Delay(handshake)

        self.client.pin_entry(self.circuit_entry)
        self.circuit = yield from self.client.circuit_process(
            origin_prefix=self._origin_prefix())

        now = yield GetTime()
        self.fails_at = self._sample_fails_at(now)
        if params.byte_budget_median is not None:
            self._byte_budget = bounded_lognormal(
                self.rng, params.byte_budget_median,
                params.byte_budget_sigma, lo=50_000.0)
        self.connected = True

    def _sample_fails_at(self, now: float) -> Optional[float]:
        candidates = []
        if self.params.hazard_per_s > 0:
            candidates.append(now + self.rng.expovariate(self.params.hazard_per_s))
        if self.params.session_lifetime_median_s is not None:
            candidates.append(now + bounded_lognormal(
                self.rng, self.params.session_lifetime_median_s,
                self.params.session_lifetime_sigma, lo=1.0))
        return min(candidates) if candidates else None

    # -- requests --------------------------------------------------------

    def request_process(self, upload_bytes: float, download_bytes: float, *,
                        weight: float = 1.0) -> Iterator:
        """One HTTP request/response; returns a RequestResult."""
        if not self.connected or self.circuit is None:
            raise ChannelFailed(f"{self.transport.name}-not-connected")
        params = self.params
        start = yield GetTime()

        latency = params.request_rtts * self._chain_rtt()
        if params.request_extra_median_s > 0:
            latency += bounded_lognormal(
                self.rng, params.request_extra_median_s,
                params.request_extra_sigma, lo=0.0, hi=120.0)
        if self._extra_sampler is not None:
            latency += self._extra_sampler(self.rng)
        latency += self.server.processing_delay(self.rng)
        yield Delay(latency)

        now = yield GetTime()
        if self.fails_at is not None and now >= self.fails_at:
            raise TransferAborted(0.0, reason=f"{self.transport.name}-session-died")
        ttfb = now - start

        full_wire = download_bytes * params.overhead_factor * CELL_OVERHEAD_FACTOR
        payload_scale = download_bytes / full_wire if full_wire > 0 else 1.0
        wire_bytes = full_wire
        truncated = False
        if self._byte_budget is not None:
            if wire_bytes >= self._byte_budget:
                wire_bytes = self._byte_budget
                truncated = True
            self._byte_budget -= wire_bytes

        path = self._transfer_path()
        try:
            yield Transfer(tuple(path), wire_bytes, weight=weight,
                           abort_at=self.fails_at)
        except TransferAborted as exc:
            raise TransferAborted(exc.bytes_done * payload_scale,
                                  reason=exc.reason) from None
        if truncated:
            raise TransferAborted(wire_bytes * payload_scale,
                                  reason=f"{self.transport.name}-rate-limited")
        end = yield GetTime()
        return RequestResult(ttfb_s=ttfb, duration_s=end - start,
                             nbytes=download_bytes)

    def _transfer_path(self) -> list[Resource]:
        assert self.circuit is not None
        extras: list[Resource] = []
        if self._cap_resource is not None:
            extras.append(self._cap_resource)
        extras.append(self._stream_window())
        extras.append(self.server.resource)
        path = self._prefix_resources() + list(self.circuit.resource_path(extras))
        # Deduplicate while keeping order (colocated hosts share uplinks).
        return list(dict.fromkeys(path))

    def _stream_window(self) -> Resource:
        """Per-channel SENDME window ceiling over the full chain RTT."""
        if self._window_resource is None:
            assert self.circuit is not None
            rtt = max(self.circuit.base_rtt_estimate(self.server.city), 0.05)
            self._window_resource = Resource(
                f"window:{self.transport.name}",
                circuit_throughput_cap_bps(rtt))
        return self._window_resource

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.transport.name} connected={self.connected}>"
