"""The measurement world: one deterministic instance of everything.

A :class:`World` owns the event kernel, the fluid network, a synthetic
Tor consensus, the website/file substrates, and one installed instance
of each requested transport. Campaigns (``repro.measure``) drive it;
examples and tests can also use the convenience fetch helpers directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from typing import Iterator, Optional

from repro.errors import ConfigError, ProcessTimeout
from repro.core.config import WorldConfig
from repro.pts.base import PluggableTransport, TorBackedChannel, TransportContext
from repro.pts.registry import make_all
from repro.pts.snowflake import Snowflake
from repro.simnet.geo import City
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.perfcounters import PerfCounters
from repro.simnet.rng import substream
from repro.simnet.session import GetTime, run_process
from repro.tor.client import TorClient
from repro.tor.consensus import generate_consensus
from repro.tor.relay import Relay
from repro.web.catalog import make_cbl_catalog, make_tranco_catalog, standard_files
from repro.web.fetch import (
    FILE_TIMEOUT_S,
    PAGE_TIMEOUT_S,
    BrowserConfig,
    browser_fetch,
    curl_fetch,
    file_fetch,
)
from repro.web.page import FileSpec, PageSpec
from repro.web.server import FileServer, OriginServer, ServerPool
from repro.web.types import FetchResult, Status


class WorldTracker:
    """Running perf aggregate over the worlds built in a tracking scope.

    Worlds are driven sequentially by experiments (each is built, run,
    and abandoned before the next is constructed), so the tracker banks
    a world's ``perf_summary()`` into its running totals when the *next*
    world registers — only one world is ever pinned in memory, instead
    of every world an experiment loops over.
    """

    def __init__(self) -> None:
        self.worlds = 0
        self._totals: dict[str, float] = {}
        self._last: Optional["World"] = None

    def register(self, world: "World") -> None:
        self._bank()
        self._last = world
        self.worlds += 1

    def _bank(self) -> None:
        if self._last is None:
            return
        last, self._last = self._last, None
        for key, value in last.perf_summary().items():
            self._totals[key] = self._totals.get(key, 0.0) + value

    def summary(self) -> dict[str, float]:
        """Counters summed across all registered worlds, plus ``worlds``.

        ``flows_per_class`` is a ratio, not an additive counter: it is
        recomputed from the summed totals rather than summed itself.
        """
        self._bank()
        out = dict(self._totals)
        out["worlds"] = float(self.worlds)
        if out.get("classes_allocated"):
            out["flows_per_class"] = (out["flows_allocated"]
                                      / out["classes_allocated"])
        return out


# Active collector for :func:`track_worlds` (None = not tracking).
# Fork safety: a supervised worker forked while the parent is inside a
# track_worlds() scope inherits the active collector and would bank its
# worlds into an orphan copy (pinning the last World in memory); worker
# entry points call reset_world_tracking() before running the unit
# (see repro.measure.parallel), pinned by
# tests/measure/test_parallel.py::test_child_entry_resets_inherited_tracker.
# replint: allow[MP01] -- context-managed save/restore in-process; forked workers reset via reset_world_tracking()
_tracked_worlds: Optional[WorldTracker] = None


def reset_world_tracking() -> None:
    """Drop any inherited tracking scope (worker-process entry hook).

    A forked child must not register its worlds with the collector it
    inherited from the parent: the parent will never read that copy,
    and banking into it keeps the child's last World alive. Unit
    payloads carry their perf summaries explicitly instead.

    ``tests/measure/test_parallel.py::test_child_entry_resets_inherited_tracker``
    checks that a child entry point calls it before running its unit.
    """
    global _tracked_worlds
    # replint: allow[MP01] -- this *is* the fork-hygiene reset hook
    _tracked_worlds = None


@contextlib.contextmanager
def track_worlds() -> Iterator[WorldTracker]:
    """Aggregate perf over every :class:`World` built in the with-block.

    Used by ``run_experiment`` to sum simulation perf counters across
    however many worlds an experiment builds, without threading a
    registry through every experiment function. Nested trackers shadow
    the outer one (each collector owns the worlds built in its scope).
    """
    global _tracked_worlds
    previous = _tracked_worlds
    tracker = WorldTracker()
    _tracked_worlds = tracker
    try:
        yield tracker
    finally:
        _tracked_worlds = previous


class World:
    """A fully wired simulation world for one configuration."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        self.kernel = EventKernel()
        self.perf = PerfCounters()
        self.net = FluidNetwork(self.kernel, counters=self.perf)
        self.consensus = generate_consensus(cfg.seed, cfg.consensus)
        self.servers = ServerPool()
        self.file_server = FileServer(cfg.server_city)
        self.tranco = make_tranco_catalog(cfg.seed, cfg.tranco_size)
        self.cbl = make_cbl_catalog(cfg.seed, cfg.cbl_size)
        self.files = standard_files()

        self.client = TorClient(
            self.kernel, self.consensus, cfg.client_city,
            rng=substream(cfg.seed, "client", cfg.client_city.name),
            medium=cfg.medium)

        ctx = TransportContext(
            kernel=self.kernel, net=self.net, seed=cfg.seed,
            pt_server_city=cfg.server_city,
            use_private_servers=cfg.use_private_servers)
        self.transports = make_all(cfg.transports)
        for transport in self.transports.values():
            transport.install(ctx)
        snowflake = self.transports.get("snowflake")
        if isinstance(snowflake, Snowflake):
            snowflake.set_surge(cfg.snowflake_surge)

        self._measurement_counter = 0
        if _tracked_worlds is not None:
            _tracked_worlds.register(self)

    # -- accessors -------------------------------------------------------

    def transport(self, name: str) -> PluggableTransport:
        try:
            return self.transports[name]
        except KeyError:
            raise ConfigError(
                f"transport {name!r} not in this world "
                f"(have: {', '.join(self.transports)})") from None

    def origin_server(self, city: City) -> OriginServer:
        return self.servers.get(city)

    def rng(self, *names: object) -> random.Random:
        """A deterministic substream scoped to this world's seed."""
        return substream(self.config.seed, *names)

    def perf_summary(self) -> dict[str, float]:
        """Simulation-engine counters for this world (see perfcounters)."""
        summary = self.perf.snapshot()
        summary["events_fired"] = float(self.kernel.events_fired)
        summary["sim_time_s"] = self.kernel.now
        return summary

    # -- measurement lifecycle --------------------------------------------

    def begin_measurement(self, *, fresh_circuit: bool = True,
                          resample_loads: bool = True) -> random.Random:
        """Start one measurement epoch: resample loads, fresh RNG.

        Resampling relay and bridge background loads models the paper's
        time-gapped measurements: every access sees the network in a new
        load state. Back-to-back comparisons within one iteration (the
        fixed-circuit experiments) pass ``resample_loads=False`` so both
        transports see identical conditions.
        """
        self._measurement_counter += 1
        epoch_rng = self.rng("measurement", self._measurement_counter)
        if resample_loads:
            self.consensus.resample_all_loads(epoch_rng)
            for transport in self.transports.values():
                transport.resample_bridge_load(epoch_rng)
        if fresh_circuit:
            self.client.drop_circuit()
        return epoch_rng

    def open_channel(self, pt_name: str, server: OriginServer,
                     rng: random.Random, *,
                     entry_override: Optional[Relay] = None) -> TorBackedChannel:
        """A fresh channel of the named transport towards ``server``."""
        transport = self.transport(pt_name)
        return transport.create_channel(self.client, server, rng,
                                        entry_override=entry_override)

    # -- convenience fetches (examples, tests) ---------------------------

    def fetch_page_curl(self, pt_name: str, page: PageSpec, *,
                        entry_override: Optional[Relay] = None,
                        fresh_circuit: bool = True,
                        resample_loads: bool = True) -> FetchResult:
        """One curl-style page access; advances the simulation."""
        rng = self.begin_measurement(fresh_circuit=fresh_circuit,
                                     resample_loads=resample_loads)
        server = self.origin_server(page.origin_city)
        channel = self.open_channel(pt_name, server, rng,
                                    entry_override=entry_override)
        return run_process(self.kernel, self.net, curl_fetch(channel, page),
                           timeout=PAGE_TIMEOUT_S)

    def fetch_page_browser(self, pt_name: str, page: PageSpec, *,
                           config: BrowserConfig | None = None,
                           entry_override: Optional[Relay] = None,
                           fresh_circuit: bool = True,
                           resample_loads: bool = True) -> FetchResult:
        """One selenium-style page load; advances the simulation."""
        rng = self.begin_measurement(fresh_circuit=fresh_circuit,
                                     resample_loads=resample_loads)
        server = self.origin_server(page.origin_city)
        channel = self.open_channel(pt_name, server, rng,
                                    entry_override=entry_override)
        return run_process(self.kernel, self.net,
                           browser_fetch(channel, page, config),
                           timeout=PAGE_TIMEOUT_S)

    def stream_media(self, pt_name: str, media, *,
                     startup_segments: int = 2,
                     timeout_s: float = 3600.0):
        """Stream a media object through a transport (future-work A.4).

        Returns a :class:`~repro.web.streaming.StreamResult`.
        """
        from repro.web.streaming import stream_fetch
        rng = self.begin_measurement()
        channel = self.open_channel(pt_name, self.file_server, rng)
        return run_process(self.kernel, self.net,
                           stream_fetch(channel, media,
                                        startup_segments=startup_segments),
                           timeout=timeout_s)

    def download_file(self, pt_name: str, file: FileSpec, *,
                      bootstrap: bool = True,
                      timeout_s: float = FILE_TIMEOUT_S) -> FetchResult:
        """One bulk download from the experiment file server.

        ``bootstrap`` models the paper's per-attempt cold ``tor``
        process start, which its bulk-download timings include.
        """
        rng = self.begin_measurement()
        channel = self.open_channel(pt_name, self.file_server, rng)

        def process():
            start = yield GetTime()
            try:
                if bootstrap:
                    yield from self.client.bootstrap_process()
            except ProcessTimeout:
                return FetchResult(
                    target=file.name, status=Status.FAILED, duration_s=timeout_s,
                    ttfb_s=None, bytes_expected=file.size_bytes,
                    bytes_received=0.0, failure_reason="bootstrap-timeout")
            boot_elapsed = (yield GetTime()) - start
            result = yield from file_fetch(channel, file)
            # The paper's bulk timings include the cold tor start-up, so
            # fold the bootstrap into the reported duration and TTFB.
            return dataclasses.replace(
                result,
                duration_s=result.duration_s + boot_elapsed,
                ttfb_s=(result.ttfb_s + boot_elapsed
                        if result.ttfb_s is not None else None))

        return run_process(self.kernel, self.net, process(), timeout=timeout_s)
