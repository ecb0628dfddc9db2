"""The four end-to-end workloads, run one pass at a time.

A *pass* is one complete execution of one workload at one seed, in the
process that imports this module (``bench.py`` starts a fresh
interpreter per pass). It drives only the public API and times layers
from outside, through the thin shims in :class:`Probe`. Importing this
module imports every ``repro`` module a workload needs, so the import
time of this module is the workload's import set-up.

All four workloads are closed loops: every campaign issues its next
access only after the previous one completed, from one process
(``seed_fanout`` fans units out to a fixed pool of worker processes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Callable, Iterator

import repro
from repro.analysis.aggregate import (
    box_by_pt,
    category_ttests,
    ecdf_by_pt,
    mean_by_pt,
    reliability_by_pt,
    ttest_matrix,
)
from repro.core.config import Scale, WorldConfig
from repro.core.experiments import EXPERIMENTS, run_experiment
from repro.core.world import World
from repro.measure.campaign import CampaignRunner
from repro.measure.ethics import PacingPolicy
from repro.measure.parallel import (
    MERGED_SUBDIR,
    CampaignSpec,
    ParallelCampaign,
    matrix_cells,
)
from repro.measure.records import Method, record_to_row
from repro.measure.store import ShardedResultStore
from repro.measure.surge import post_september_level, pre_september_level
from repro.pts.registry import ALL_TRANSPORTS
from repro.simnet.geo import Cities
from repro.simnet.rng import derive_seed
from repro.units import seconds_to_ms
from repro.web.catalog import make_cbl_catalog, make_tranco_catalog

#: Pacing used by the paper experiments' own campaigns: a fixed 0.5 s
#: simulated gap between accesses, no batch pauses.
FAST_PACING = PacingPolicy(gap_between_accesses_s=0.5, batch_size=0)

#: Sizes. Each pass takes a few seconds, so that a timed run holds
#: several passes and most stretches of the workload run at least once
#: outside the bursts of contention a shared host shows.
PIPELINE_SCALE = Scale(n_sites=20, site_repetitions=1, file_attempts=5,
                       fixed_circuit_iterations=6)
CURL_SITES_PER_LIST = 150
CURL_REPETITIONS = 2
BULK_ATTEMPTS = 80
FANOUT_PTS = ("tor", "obfs4", "meek", "snowflake")
FANOUT_SEEDS = 3
FANOUT_SITES = 30
FANOUT_REPETITIONS = 4
#: Fixed worker count for ``seed_fanout``: the benchmark machine has two
#: cores, and a fixed value keeps runs comparable across machines.
FANOUT_WORKERS = 2

#: The five Tranco pages fig3a and fig3b load on fixed circuits.
FIXED_CIRCUIT_PAGES = (0, 5, 11, 17, 23)
#: Page objects (documents plus subresources) the pipeline's browser
#: loads fetch, for the median world seed over seeds 1-3000.
PIPELINE_OBJECTS = 53_964
#: About 1 world seed in 10 qualifies; give up far beyond that.
MAX_CANDIDATES = 10_000

WORK_DIR = Path(__file__).resolve().parent / ".work"


def pipeline_objects(world_seed: int) -> int:
    """Page objects the pipeline's browser loads fetch in one world.

    Mirrors ``repro.core.experiments``: four selenium/browsertime
    campaigns load the first n/2 Tranco and n/2 CBL pages once per
    repetition through each of the 12 browser-capable transports, and
    fig3a/fig3b load ``FIXED_CIRCUIT_PAGES`` through three transports
    in every fixed-circuit iteration.
    """
    scale = PIPELINE_SCALE
    half = scale.n_sites // 2
    tranco = make_tranco_catalog(world_seed, max(half, FIXED_CIRCUIT_PAGES[-1] + 1))
    cbl = make_cbl_catalog(world_seed, scale.n_sites - half)
    campaign = sum(1 + len(p.resources) for p in tranco[:half] + cbl)
    fixed = sum(1 + len(tranco[i].resources) for i in FIXED_CIRCUIT_PAGES)
    return (4 * 12 * scale.site_repetitions * campaign
            + 2 * 3 * scale.fixed_circuit_iterations * fixed)


def pipeline_world_seed(seed: int) -> int:
    """The world seed of the pipeline's input for benchmark ``seed``.

    Page structure is heavy-tailed: the few dozen pages one pipeline
    pass loads in a browser differ by half between world seeds in
    object count, and the pipeline's run time follows it within a few
    percent. The input is therefore drawn at a fixed size: the first
    candidate world seed derived from ``seed`` whose browser loads
    fetch within 2 % of ``PIPELINE_OBJECTS`` objects.
    """
    for index in range(MAX_CANDIDATES):
        candidate = derive_seed(seed, "bench-pipeline", index)
        if abs(pipeline_objects(candidate) / PIPELINE_OBJECTS - 1) <= 0.02:
            return candidate
    raise ValueError(f"no pipeline input of {PIPELINE_OBJECTS} page objects "
                     f"among {MAX_CANDIDATES} world seeds for seed {seed}")


class Probe:
    """Timing shims installed on the public calls a workload makes.

    Wraps ``World.__init__`` (summed set-up time) and the three access
    calls ``World.fetch_page_curl``, ``World.fetch_page_browser`` and
    ``World.download_file`` (one wall-time sample per access, in access
    order, plus a count of accesses that raised). ``marks`` holds the
    clock at the end of every access and at every :meth:`mark`. Forked
    campaign workers inherit the shims; with ``dump_dir`` set, each
    ``run_website_campaign`` call writes the worker's samples there so
    the parent can collect them.
    """

    ACCESS_CALLS = ("fetch_page_curl", "fetch_page_browser", "download_file")

    def __init__(self) -> None:
        self.access_s: list[float] = []
        self.marks: list[float] = []
        self.failed = 0
        self.world_init_s = 0.0
        self.dump_dir: Path | None = None

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    @contextlib.contextmanager
    def installed(self) -> Iterator["Probe"]:
        """Install the shims for the duration of the with-block."""
        run = CampaignRunner.run_website_campaign

        @functools.wraps(run)
        def campaign_then_dump(runner, *args, **kwargs):
            results = run(runner, *args, **kwargs)
            if self.dump_dir is not None:
                self._dump(runner.world.config)
            return results

        shims = [(World, "__init__", self._timed_init(World.__init__)),
                 (CampaignRunner, "run_website_campaign", campaign_then_dump)]
        shims += [(World, name, self._timed_access(getattr(World, name)))
                  for name in self.ACCESS_CALLS]
        originals = [(owner, name, owner.__dict__[name])
                     for owner, name, _ in shims]
        for owner, name, shim in shims:
            setattr(owner, name, shim)
        try:
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def _timed_init(self, init: Callable) -> Callable:
        @functools.wraps(init)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            init(*args, **kwargs)
            self.world_init_s += time.perf_counter() - start
        return timed

    def _timed_access(self, call: Callable) -> Callable:
        @functools.wraps(call)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return call(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                self.mark()
                self.access_s.append(self.marks[-1] - start)
        return timed

    def _dump(self, config: WorldConfig) -> None:
        """Write this worker's samples, keyed by its unit's world."""
        assert self.dump_dir is not None
        key = [config.seed, config.client_city.name, config.server_city.name]
        path = self.dump_dir / f"probe-{'-'.join(map(str, key))}.json"
        path.write_text(json.dumps({"key": key, "access_s": self.access_s,
                                    "failed": self.failed,
                                    "world_init_s": self.world_init_s}))
        self.access_s, self.failed, self.world_init_s = [], 0, 0.0

    def collect(self) -> None:
        """Fold every dumped worker probe back in, in unit order."""
        assert self.dump_dir is not None
        dumps = [json.loads(path.read_text())
                 for path in self.dump_dir.glob("probe-*.json")]
        for dumped in sorted(dumps, key=lambda d: d["key"]):
            self.access_s.extend(dumped["access_s"])
            self.failed += dumped["failed"]
            self.world_init_s += dumped["world_init_s"]


def canonical(value: object) -> object:
    """A JSON-ready form of analysis outputs (dataclasses, enum keys)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(canonical(k)): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def _line(value: object) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode()


def _rows_digest(records, digest) -> None:
    for record in records:
        digest.update(_line(record_to_row(record)))


@dataclasses.dataclass
class Outcome:
    """What one workload execution produced, before any digesting."""

    digest: Callable[[], str]
    perf: dict[str, float]
    units: int = 0
    failed_units: int = 0
    layer_s: dict[str, float] = dataclasses.field(default_factory=dict)


def _perf_totals(perfs) -> dict[str, float]:
    total: dict[str, float] = {}
    for perf in perfs:
        for key, value in perf.items():
            total[key] = total.get(key, 0.0) + float(value)
    if total.get("classes_allocated"):
        total["flows_per_class"] = (total["flows_allocated"]
                                    / total["classes_allocated"])
    return total


def run_pipeline(seed: int, probe: Probe) -> Outcome:
    results = [run_experiment(eid, seed=seed, scale=PIPELINE_SCALE)
               for eid in EXPERIMENTS]

    def digest() -> str:
        h = hashlib.sha256()
        for result in results:
            h.update(_line([result.experiment_id, result.metrics,
                            result.text]))
            if result.results is not None:
                _rows_digest(result.results, h)
        return h.hexdigest()

    return Outcome(digest, _perf_totals(r.perf for r in results))


def _campaign_outcome(runner: CampaignRunner, results) -> Outcome:
    def digest() -> str:
        h = hashlib.sha256()
        _rows_digest(results, h)
        return h.hexdigest()

    return Outcome(digest, runner.perf_summary())


def run_curl_sites(seed: int, probe: Probe) -> Outcome:
    world = World(WorldConfig(seed=seed, snowflake_surge=pre_september_level(),
                              tranco_size=CURL_SITES_PER_LIST,
                              cbl_size=CURL_SITES_PER_LIST))
    runner = CampaignRunner(world, pacing=FAST_PACING)
    results = runner.run_website_campaign(
        ALL_TRANSPORTS, list(world.tranco) + list(world.cbl),
        method=Method.CURL, repetitions=CURL_REPETITIONS)
    return _campaign_outcome(runner, results)


def run_bulk_files(seed: int, probe: Probe) -> Outcome:
    world = World(WorldConfig(seed=seed, snowflake_surge=post_september_level(),
                              tranco_size=2, cbl_size=2))
    runner = CampaignRunner(world, pacing=FAST_PACING)
    results = runner.run_file_campaign(ALL_TRANSPORTS, world.files,
                                       attempts=BULK_ATTEMPTS)
    return _campaign_outcome(runner, results)


def run_seed_fanout(seed: int, probe: Probe) -> Outcome:
    """Write side (supervised fan-out to shards) then read side."""
    spec = CampaignSpec(
        seeds=tuple(range(seed, seed + FANOUT_SEEDS)),
        base_config=WorldConfig(seed=seed, transports=FANOUT_PTS,
                                tranco_size=FANOUT_SITES, cbl_size=2),
        pt_names=FANOUT_PTS,
        cells=matrix_cells(Cities.client_cities(), Cities.server_cities()),
        n_sites=FANOUT_SITES, repetitions=FANOUT_REPETITIONS,
        pacing=FAST_PACING)
    WORK_DIR.mkdir(exist_ok=True)
    spool = Path(tempfile.mkdtemp(prefix="fanout-", dir=WORK_DIR))
    try:
        probe.dump_dir = spool
        probe.mark()
        outcome = ParallelCampaign(spec, workers=FANOUT_WORKERS,
                                   spool_dir=spool).run()
        probe.mark()
        store = ShardedResultStore.open(spool / MERGED_SUBDIR)
        probe.mark()
        reductions = [box_by_pt(store), mean_by_pt(store),
                      ttest_matrix(store), ecdf_by_pt(store),
                      reliability_by_pt(store), category_ttests(store)]
        probe.mark()
        probe.collect()
    except BaseException:
        shutil.rmtree(spool, ignore_errors=True)
        raise
    finally:
        probe.dump_dir = None
    run_s, reopen_s, reduce_s = (b - a for a, b in zip(probe.marks[-4:],
                                                       probe.marks[-3:]))

    def digest() -> str:
        try:
            h = hashlib.sha256()
            _rows_digest(store.iter_records(), h)
            h.update(_line(canonical(reductions)))
            return h.hexdigest()
        finally:
            shutil.rmtree(spool, ignore_errors=True)

    return Outcome(digest, outcome.perf_summary(),
                   units=len(outcome.units) + len(outcome.failed),
                   failed_units=len(outcome.failed),
                   layer_s={"measure.parallel.run_s": run_s,
                            "measure.store.reopen_s": reopen_s,
                            "analysis.reduce_s": reduce_s})


def _same_seed(seed: int) -> int:
    return seed


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Probe], Outcome]
    #: Accesses one pass must complete, whatever the seed.
    accesses: int
    #: Maps the benchmark seed to the world seed ``run`` receives.
    world_seed: Callable[[int], int] = _same_seed


WORKLOADS = {w.name: w for w in (
    Workload("pipeline", run_pipeline, 4080, pipeline_world_seed),
    Workload("curl_sites", run_curl_sites,
             len(ALL_TRANSPORTS) * 2 * CURL_SITES_PER_LIST * CURL_REPETITIONS),
    Workload("bulk_files", run_bulk_files, len(ALL_TRANSPORTS) * 5 * BULK_ATTEMPTS),
    Workload("seed_fanout", run_seed_fanout,
             FANOUT_SEEDS * 9 * len(FANOUT_PTS) * FANOUT_SITES
             * FANOUT_REPETITIONS),
)}

#: PerfCounters and supervisor counters reported as per-layer metrics.
PERF_METRICS = {
    "simnet.kernel.events_fired": "events_fired",
    "simnet.fairshare.reallocations": "reallocations",
    "simnet.fairshare.waterfill_rounds": "waterfill_rounds",
    "simnet.fairshare.warm_start_hits": "warm_start_hits",
    "simnet.fairshare.rounds_replayed": "rounds_replayed",
    "simnet.fairshare.flows_per_class": "flows_per_class",
    "simnet.network.eta_refreshes": "eta_refreshes",
    "simnet.network.completion_reschedules": "completion_reschedules",
    "simnet.network.coalesced_mutations": "coalesced_mutations",
    "simnet.network.lazy_materializations": "lazy_materializations",
    "measure.supervise.workers_spawned": "workers_spawned",
    "measure.supervise.unit_retries": "unit_retries",
    "measure.supervise.unit_timeouts": "unit_timeouts",
    "measure.supervise.worker_crashes": "worker_crashes",
    "measure.supervise.failed_units": "failed_units",
}

#: Layer calls timed from outside in untraced passes.
LAYER_TIMINGS = ("core.world_init_s", "measure.parallel.run_s",
                 "measure.store.reopen_s", "analysis.reduce_s")


def run_pass(name: str, seed: int, *, import_s: float, trace: bool) -> dict:
    """Run one pass and return its raw measurements.

    ``import_s`` is how long importing this module took; the wall time
    covers it and the workload, but not drawing the workload's input.
    """
    workload = WORKLOADS[name]
    world_seed = workload.world_seed(seed)
    probe = Probe()
    profiler = None
    if trace:
        import cProfile

        # builtins=False charges C-call time to the calling function,
        # so it lands in the calling layer. Forked workers must not
        # keep profiling: only this process is traced.
        profiler = cProfile.Profile(builtins=False)
        os.register_at_fork(after_in_child=profiler.disable)
    with probe.installed():
        probe.mark()
        if profiler is not None:
            profiler.enable()
        outcome = workload.run(world_seed, probe)
        if profiler is not None:
            profiler.disable()
        probe.mark()

    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    layer_s = {"core.world_init_s": probe.world_init_s}
    layer_s.update(outcome.layer_s)
    result = {
        "workload": name, "seed": seed, "world_seed": world_seed,
        "traced": trace,
        # The pass's wall time, cut at every mark: imports, then the
        # stretches between consecutive access ends (or phase ends).
        "segments_s": [import_s] + [b - a for a, b in zip(probe.marks,
                                                         probe.marks[1:])],
        "setup_s": import_s + probe.world_init_s,
        "accesses": len(probe.access_s),
        "expected_accesses": workload.accesses,
        "access_failed": probe.failed,
        "access_ms": [seconds_to_ms(s) for s in probe.access_s],
        "units": outcome.units,
        "failed_units": outcome.failed_units,
        "peak_rss_mb": rss_kib / 1024,
        "digest": outcome.digest(),
        "layers": {metric: layer_s.get(metric, 0.0)
                   for metric in LAYER_TIMINGS},
    }
    result["layers"].update({metric: outcome.perf.get(key, 0.0)
                             for metric, key in PERF_METRICS.items()})
    if profiler is not None:
        import pstats

        import layers

        result["layers"].update(layers.rollup(
            pstats.Stats(profiler).stats, Path(repro.__file__).parent))
    return result
