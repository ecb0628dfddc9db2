"""Experiment registry: one entry per table/figure of the paper.

Every experiment builds its own world(s) from a seed and a
:class:`~repro.core.config.Scale`, runs the relevant campaign, and
returns an :class:`ExperimentResult` whose ``metrics`` are directly
comparable with the ``paper`` reference values. ``python -m repro run``
prints both side by side, ``EXPERIMENTS.md`` records the comparison,
and ``tests/calibration/test_paper_claims.py`` checks the paper's
claims against the metrics at ten seeds.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.analysis.aggregate import (
    box_by_pt,
    category_ttests,
    ecdf_by_pt,
    mean_by_pt,
    reliability_by_pt,
    ttest_matrix,
)
from repro.analysis.boxstats import BoxStats
from repro.analysis.ecdf import ECDF
from repro.analysis.stats import paired_t_test
from repro.analysis.tables import render_table, ttest_table
from repro.core.config import Scale, WorldConfig
from repro.core.world import World, track_worlds
from repro.errors import ConfigError
from repro.measure.campaign import CampaignRunner
from repro.measure.ethics import PacingPolicy
from repro.measure.locations import location_matrix, mean_by_client
from repro.measure.records import Method, ResultSet, TargetKind
from repro.measure.surge import (
    SNOWFLAKE_USER_TIMELINE,
    post_september_level,
    pre_september_level,
)
from repro.pts.catalog28 import CATALOG
from repro.pts.registry import ALL_TRANSPORTS
from repro.simnet.geo import Medium
from repro.tor.relay import make_colocated_guard_and_bridge
from repro.units import WEEK, mbit
from repro.web.types import Status


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    title: str
    text: str                      # rendered tables/series for humans
    metrics: dict[str, float]      # headline measured values
    paper: dict[str, float]        # the paper's corresponding values
    results: Optional[ResultSet] = None
    #: Simulation perf counters summed over the worlds this run built
    #: (see ``repro.simnet.perfcounters``), plus ``worlds``; filled by
    #: ``run_experiment`` so experiment-mode parallel units can report
    #: engine work the same way matrix-mode cells do.
    perf: dict[str, float] = field(default_factory=dict)

    def comparison(self) -> str:
        """Paper-vs-measured table for the shared metric keys."""
        rows = []
        for key, paper_value in self.paper.items():
            measured = self.metrics.get(key)
            ratio = (measured / paper_value
                     if measured is not None and paper_value else None)
            rows.append([key, paper_value, measured, ratio])
        return render_table(["metric", "paper", "measured", "ratio"], rows,
                            precision=2)


@dataclass(frozen=True)
class ExperimentDef:
    experiment_id: str
    title: str
    paper_ref: str
    fn: Callable[[int, Scale], ExperimentResult] = field(repr=False)


EXPERIMENTS: dict[str, ExperimentDef] = {}


def register(experiment_id: str, title: str, paper_ref: str):
    """Decorator adding an experiment to the registry."""

    def wrap(fn: Callable[[int, Scale], ExperimentResult]):
        EXPERIMENTS[experiment_id] = ExperimentDef(
            experiment_id=experiment_id, title=title, paper_ref=paper_ref,
            fn=fn)
        return fn

    return wrap


def list_experiments() -> list[ExperimentDef]:
    return list(EXPERIMENTS.values())


def run_experiment(experiment_id: str, *, seed: int = 1,
                   scale: Optional[Scale] = None) -> ExperimentResult:
    """Run one registered experiment.

    The result's ``perf`` dict carries the simulation perf counters
    summed over every world the experiment built in-process (worlds run
    in worker processes report through their own units instead).
    """
    try:
        definition = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None
    with track_worlds() as tracker:
        result = definition.fn(seed, scale or Scale.small())
    result.perf = tracker.summary()
    return result


def run_experiment_seeds(experiment_id: str, seeds: Iterable[int], *,
                         scale: Optional[Scale] = None,
                         workers: int = 1,
                         spool_dir=None,
                         chunk_size: Optional[int] = None,
                         retries: Optional[int] = None,
                         unit_timeout_s: Optional[float] = None,
                         resume: bool = False,
                         strict: bool = True,
                         ) -> list[ExperimentResult]:
    """Run one experiment at several seeds, fanned across workers.

    Each seed is an independent world, so the replication routes
    through :class:`~repro.measure.parallel.ParallelCampaign`. The
    returned list is aligned with the given ``seeds`` order regardless
    of worker completion order (the outcome itself merges sorted by
    seed). With ``spool_dir`` set, workers spill their result sets to
    JSONL shards there instead of shipping row payloads through the
    pool (see ``docs/streaming-store.md``); the returned results then
    carry metrics only (``results=None``) — the records stay in the
    spool shards and the merged store under ``spool_dir``, so a
    many-seed fan-out never re-materializes every seed's record set in
    this process.

    Execution is supervised (``docs/fault-tolerance.md``): ``retries``
    and ``unit_timeout_s`` override the default
    :class:`~repro.measure.supervise.RetryPolicy`; ``resume=True``
    (spool mode only) replays the unit journal under ``spool_dir`` and
    re-runs only missing seeds. The default here is ``strict=True`` —
    this function's contract is one result *per requested seed*, so a
    seed that exhausts its retry budget raises
    :class:`~repro.errors.UnitsExhaustedError` rather than silently
    returning a shorter list.
    """
    from repro.measure.parallel import CampaignSpec, ParallelCampaign
    from repro.measure.supervise import RetryPolicy

    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; known: {known}")
    seeds = list(seeds)
    spec = CampaignSpec(seeds=tuple(seeds), experiment_id=experiment_id,
                        scale=scale or Scale.small())
    campaign_args = {} if chunk_size is None else {"chunk_size": chunk_size}
    if retries is not None or unit_timeout_s is not None:
        campaign_args["retry"] = RetryPolicy(
            **({} if retries is None else {"retries": retries}),
            unit_timeout_s=unit_timeout_s)
    outcome = ParallelCampaign(spec, workers=workers, spool_dir=spool_dir,
                               strict=strict, resume=resume,
                               **campaign_args).run()
    by_seed = {unit.seed: unit.to_experiment_result(
                   load_records=outcome.store is None)
               for unit in outcome.units}
    return [by_seed[seed] for seed in seeds]


def mean_seed_metrics(results: Iterable[ExperimentResult]) -> dict[str, float]:
    """Per-key mean of the metrics shared by every seed's result."""
    results = list(results)
    if not results:
        return {}
    keys = set(results[0].metrics)
    for result in results[1:]:
        keys &= set(result.metrics)
    return {key: statistics.fmean(r.metrics[key] for r in results)
            for key in sorted(keys)}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

#: Tight pacing for experiments: longer simulated gaps would only add
#: events, not realism, because loads are resampled per measurement.
_FAST_PACING = PacingPolicy(gap_between_accesses_s=0.5, batch_size=0)


def _mixed_sites(world: World, n: int) -> list:
    """Half Tranco, half CBL — the paper reports both lists together."""
    half = max(1, n // 2)
    return list(world.tranco[:half]) + list(world.cbl[:n - half])


def _fmt_means(means: dict[str, float]) -> str:
    rows = [[pt, mean] for pt, mean in sorted(means.items(),
                                              key=lambda kv: kv[1])]
    return render_table(["pt", "mean_s"], rows, precision=2)


def _fmt_boxes(boxes: dict[str, BoxStats]) -> str:
    rows = [[pt, b.n, b.mean, b.median, b.q1, b.q3]
            for pt, b in sorted(boxes.items(), key=lambda kv: kv[1].median)]
    return render_table(["pt", "n", "mean_s", "median_s", "q1", "q3"], rows,
                        precision=2)


def _website_campaign(seed: int, scale: Scale, method: Method, *,
                      surge: float, pts: tuple[str, ...] = ALL_TRANSPORTS,
                      medium: Medium = Medium.WIRED,
                      n_sites: Optional[int] = None) -> tuple[World, ResultSet]:
    n = n_sites or scale.n_sites
    world = World(WorldConfig(seed=seed, snowflake_surge=surge,
                              medium=medium, transports=pts,
                              tranco_size=max(n, 2), cbl_size=max(n, 2)))
    runner = CampaignRunner(world, pacing=_FAST_PACING)
    results = runner.run_website_campaign(
        pts, _mixed_sites(world, n), method=method,
        repetitions=scale.site_repetitions)
    return world, results


def _make_record(world: World, pt_name: str, fetch, kind: TargetKind,
                 method: Method, repetition: int = 0):
    """Build a MeasurementRecord for custom (non-campaign) experiments."""
    from repro.measure.records import MeasurementRecord
    transport = world.transport(pt_name)
    return MeasurementRecord(
        pt=pt_name, category=transport.category.value, target=fetch.target,
        kind=kind, method=method,
        client_city=world.config.client_city.name,
        server_city=world.config.server_city.name,
        medium=world.config.medium.value,
        duration_s=fetch.duration_s, status=fetch.status,
        bytes_expected=fetch.bytes_expected,
        bytes_received=fetch.bytes_received, ttfb_s=fetch.ttfb_s,
        sim_time_s=world.kernel.now, repetition=repetition)


# ---------------------------------------------------------------------------
# Table 1 & Table 2
# ---------------------------------------------------------------------------


@register("table1", "Overview of measurement types", "Table 1")
def _table1(seed: int, scale: Scale) -> ExperimentResult:
    """Reproduce the measurement-type overview with our scaled counts."""
    paper_counts = {
        "website_curl": 149_500, "website_selenium": 174_000,
        "files_curl": 2_700, "files_selenium": 2_700,
        "medium_change": 60_000, "speed_index": 60_000,
        "pt_overhead": 40_000, "location_variation": 686_000,
    }
    n_pts = len(ALL_TRANSPORTS)
    reps = scale.site_repetitions
    ours = {
        "website_curl": n_pts * 2 * scale.n_sites * reps,
        "website_selenium": (n_pts - 1) * 2 * scale.n_sites * reps,
        "files_curl": n_pts * 5 * scale.file_attempts,
        "files_selenium": n_pts * 5 * scale.file_attempts,
        "medium_change": n_pts * scale.n_sites * reps,
        "speed_index": (n_pts - 1) * scale.n_sites * reps,
        "pt_overhead": 8 * scale.n_sites,
        "location_variation": 9 * n_pts * scale.n_sites * reps,
    }
    rows = [[k, paper_counts[k], ours[k],
             "Tranco + CBL" if "website" in k or "location" in k else "see paper"]
            for k in paper_counts]
    text = render_table(["measurement type", "paper count", "scaled count",
                         "target"], rows, precision=0)
    return ExperimentResult("table1", "Measurement overview", text,
                            metrics={k: float(v) for k, v in ours.items()},
                            paper={k: float(v) for k, v in paper_counts.items()})


@register("table2", "Comparison of 28 pluggable transports", "Table 2")
def _table2(seed: int, scale: Scale) -> ExperimentResult:
    rows = [[e.name, e.group.value.split(" ")[1], e.code_available,
             e.functional, e.integratable, e.evaluated, e.technology]
            for e in CATALOG]
    text = render_table(
        ["name", "group", "code", "functional", "integratable", "evaluated",
         "technology"], rows)
    from repro.pts.catalog28 import summary_counts
    counts = summary_counts()
    return ExperimentResult(
        "table2", "28-PT survey", text,
        metrics={k: float(v) for k, v in counts.items()},
        paper={"total": 28.0, "evaluated": 12.0, "non_functional": 13.0,
               "partially_evaluated": 1.0, "code_unavailable": 6.0})


# ---------------------------------------------------------------------------
# Figures 2a/2b and their t-test tables (3-6) + Table 10
# ---------------------------------------------------------------------------


@register("fig2a", "Website access time via curl", "Figure 2a")
def _fig2a(seed: int, scale: Scale) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, Method.CURL,
                                   surge=pre_september_level())
    boxes = box_by_pt(results)
    means = mean_by_pt(results)
    text = _fmt_boxes(boxes)
    paper = {"tor": 2.3, "obfs4": 2.4, "conjure": 2.5, "cloak": 2.8,
             "webtunnel": 3.2, "dnstt": 4.4, "meek": 5.8,
             "camoufler": 12.8, "marionette": 20.8}
    return ExperimentResult("fig2a", "curl website access", text,
                            metrics=means, paper=paper, results=results)


@register("fig2b", "Website access time via selenium", "Figure 2b")
def _fig2b(seed: int, scale: Scale) -> ExperimentResult:
    # Selenium measurements started in November 2022: snowflake surge on.
    _, results = _website_campaign(seed, scale, Method.SELENIUM,
                                   surge=post_september_level())
    boxes = box_by_pt(results, method=Method.SELENIUM)
    means = mean_by_pt(results, method=Method.SELENIUM)
    text = _fmt_boxes(boxes)
    # Paper means reconstructed from the Tables 5-6 mean differences.
    paper = {"obfs4": 14.7, "webtunnel": 16.4, "conjure": 17.4,
             "tor": 20.6, "cloak": 20.5, "psiphon": 20.1,
             "shadowsocks": 26.6, "stegotorus": 32.3, "snowflake": 35.6,
             "dnstt": 40.7, "meek": 60.6, "marionette": 67.6}
    return ExperimentResult("fig2b", "selenium website access", text,
                            metrics=means, paper=paper, results=results)


#: The key t-test pairs the paper discusses in prose, with its values.
#: Keys follow :func:`repro.analysis.aggregate.pair_label`: registry
#: names verbatim, baseline rendered "Tor".
_PAPER_TTEST_CURL = {
    "Tor-dnstt": -4.791, "Tor-meek": -4.094, "Tor-camoufler": -12.032,
    "Tor-marionette": -15.079, "obfs4-meek": -5.117, "Tor-obfs4": 1.133,
    "snowflake-meek": -4.440, "camoufler-webtunnel": 11.341,
}

_PAPER_TTEST_SELENIUM = {
    "Tor-meek": -39.991, "Tor-obfs4": 5.934, "Tor-webtunnel": 4.198,
    "Tor-conjure": 3.040, "snowflake-conjure": 18.288,
    "Tor-marionette": -47.024, "Tor-dnstt": -20.086,
}


def _ttest_metric_key(pair: str) -> str:
    return f"diff:{pair}"


def _ttest_experiment(experiment_id: str, title: str, method: Method,
                      paper_pairs: dict[str, float], seed: int,
                      scale: Scale, surge: float) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, method, surge=surge)
    tests = ttest_matrix(results, method=method)
    text = ttest_table(tests)
    metrics = {}
    paper = {}
    for pair, value in paper_pairs.items():
        paper[_ttest_metric_key(pair)] = value
        test = tests.get(pair)
        if test is not None:
            metrics[_ttest_metric_key(pair)] = test.mean_diff
        else:
            # The matrix stores each unordered pair once; flip the sign
            # when the paper lists the opposite orientation.
            a, b = pair.split("-", 1)
            reverse = tests.get(f"{b}-{a}")
            if reverse is not None:
                metrics[_ttest_metric_key(pair)] = -reverse.mean_diff
    return ExperimentResult(experiment_id, title, text, metrics=metrics,
                            paper=paper, results=results)


@register("tables3_4", "Paired t-tests, curl website access", "Tables 3-4")
def _tables3_4(seed: int, scale: Scale) -> ExperimentResult:
    return _ttest_experiment("tables3_4", "t-tests (curl)", Method.CURL,
                             _PAPER_TTEST_CURL, seed, scale,
                             surge=pre_september_level())


@register("tables5_6", "Paired t-tests, selenium website access", "Tables 5-6")
def _tables5_6(seed: int, scale: Scale) -> ExperimentResult:
    return _ttest_experiment("tables5_6", "t-tests (selenium)",
                             Method.SELENIUM, _PAPER_TTEST_SELENIUM, seed,
                             scale, surge=post_september_level())


@register("table10", "Paired t-tests between PT categories", "Table 10")
def _table10(seed: int, scale: Scale) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, Method.CURL,
                                   surge=pre_september_level())
    tests = category_ttests(results)
    text = ttest_table(tests)
    paper = {
        "diff:fully encrypted-mimicry": -5.214,
        "diff:mimicry-Tor": 4.265,
        "diff:proxy layer-Tor": 1.019,
        "diff:Tor-tunneling": -3.896,
        "diff:fully encrypted-tunneling": -4.915,
        "diff:proxy layer-tunneling": -2.887,
        "diff:fully encrypted-Tor": -0.944,
        "diff:mimicry-proxy layer": 3.232,
    }
    metrics = {}
    for key in paper:
        pair = key.split(":", 1)[1]
        test = tests.get(pair)
        if test is None:
            # Pairs are unordered: try the reversed label.
            a, b = pair.split("-", 1)
            test = tests.get(f"{b}-{a}")
            if test is not None:
                metrics[key] = -test.mean_diff
        else:
            metrics[key] = test.mean_diff
    return ExperimentResult("table10", "category t-tests", text,
                            metrics=metrics, paper=paper, results=results)


# ---------------------------------------------------------------------------
# Figures 3a, 3b, 4, 9: fixed-circuit mechanism experiments (§4.2.1, §5.2)
# ---------------------------------------------------------------------------


def _pinned_world(seed: int, pts: tuple[str, ...]) -> tuple[World, object, object]:
    """A world where our own guard and PT servers share one host.

    Reproduces the paper's setup: private PT servers, and a colocated
    guard so vanilla Tor and the PTs use the *same machine* as first hop.
    """
    config = WorldConfig(seed=seed, use_private_servers=True,
                         transports=pts, tranco_size=40, cbl_size=4)
    world = World(config)
    guard, bridge = make_colocated_guard_and_bridge(
        config.server_city, mbit(100), name=f"colocated{seed}")
    world.client.default_entry = guard
    return world, guard, bridge


def _pinned_fetch(world: World, guard, bridge, pt_name: str, page,
                  middle, exit, *, method: Method = Method.SELENIUM,
                  resample_loads: bool = True) -> object:
    """One page access over a circuit pinned to (colocated host, m, e).

    The paper's fixed-circuit runs produced ~13s means — full browser
    page loads — so the default method here is selenium-style. Within
    one iteration the paper accessed each site via Tor and both PTs
    back-to-back, so callers freeze loads across the grouped accesses.
    """
    world.client.pin_path(entry=None, middle=middle, exit=exit)
    transport = world.transport(pt_name)
    from repro.pts.base import ArchSet
    override = None
    if transport.arch_set is ArchSet.SERVER_IS_GUARD:
        override = bridge  # the PT server half of the colocated host
    if method is Method.CURL:
        return world.fetch_page_curl(pt_name, page, entry_override=override,
                                     resample_loads=resample_loads)
    return world.fetch_page_browser(pt_name, page, entry_override=override,
                                    resample_loads=resample_loads)


@register("fig3a", "Fixed circuit: Tor vs obfs4 vs webtunnel", "Figure 3a")
def _fig3a(seed: int, scale: Scale) -> ExperimentResult:
    pts = ("tor", "obfs4", "webtunnel")
    world, guard, bridge = _pinned_world(seed, pts)
    # Five Tranco sites of different flavours (paper: static, news,
    # video, gaming, shopping).
    sites = [world.tranco[i] for i in (0, 5, 11, 17, 23)]
    rng = world.rng("fig3a", "paths")
    results = ResultSet()
    for iteration in range(scale.fixed_circuit_iterations):
        path = world.client.paths.select(rng)
        for site in sites:
            for index, pt in enumerate(pts):
                fetch = _pinned_fetch(world, guard, bridge, pt, site,
                                      path.middle, path.exit,
                                      resample_loads=(index == 0))
                results.append(_make_record(world, pt, fetch,
                                            TargetKind.WEBSITE,
                                            Method.SELENIUM,
                                            repetition=iteration))
    boxes = box_by_pt(results)
    text = _fmt_boxes(boxes)
    tests = ttest_matrix(results, pairs=[("webtunnel", "tor"),
                                         ("obfs4", "tor"),
                                         ("webtunnel", "obfs4")])
    text += "\n\n" + ttest_table(tests)
    metrics = {f"mean:{pt}": boxes[pt].mean for pt in pts}
    for pair, test in tests.items():
        metrics[f"p:{pair}"] = test.p
    paper = {"mean:tor": 13.41, "mean:obfs4": 13.17, "mean:webtunnel": 13.59,
             # Same-circuit differences are NOT significant in the paper.
             "p:webtunnel-Tor": 0.508, "p:obfs4-Tor": 0.327,
             "p:webtunnel-obfs4": 0.95}
    return ExperimentResult("fig3a", "fixed-circuit comparison", text,
                            metrics=metrics, paper=paper, results=results)


@register("fig3b", "ECDF of per-site |PT - Tor| on fixed circuits", "Figure 3b")
def _fig3b(seed: int, scale: Scale) -> ExperimentResult:
    pts = ("tor", "obfs4", "webtunnel")
    world, guard, bridge = _pinned_world(seed, pts)
    sites = [world.tranco[i] for i in (0, 5, 11, 17, 23)]
    rng = world.rng("fig3b", "paths")
    diffs: list[float] = []
    for iteration in range(scale.fixed_circuit_iterations):
        path = world.client.paths.select(rng)
        for site in sites:
            tor_fetch = _pinned_fetch(world, guard, bridge, "tor", site,
                                      path.middle, path.exit)
            for pt in ("obfs4", "webtunnel"):
                pt_fetch = _pinned_fetch(world, guard, bridge, pt, site,
                                         path.middle, path.exit,
                                         resample_loads=False)
                diffs.append(abs(pt_fetch.duration_s - tor_fetch.duration_s))
    ecdf = ECDF.from_values(diffs)
    series = ecdf.series(points=20)
    text = render_table(["|diff| (s)", "cum. fraction"],
                        [[x, p] for x, p in series])
    metrics = {"frac_below_5s": ecdf.fraction_below(5.0),
               "median_diff_s": ecdf.quantile(0.5)}
    # Paper: >80% of differences below 5 seconds.
    paper = {"frac_below_5s": 0.8, "median_diff_s": 2.0}
    return ExperimentResult("fig3b", "fixed-circuit |diff| ECDF", text,
                            metrics=metrics, paper=paper)


@register("fig4", "Fixed guard, variable middle/exit: Tor vs obfs4", "Figure 4")
def _fig4(seed: int, scale: Scale) -> ExperimentResult:
    pts = ("tor", "obfs4")
    world, guard, bridge = _pinned_world(seed, pts)
    results = ResultSet()
    sites = world.tranco[:scale.n_sites]
    for site in sites:
        for pt in pts:
            # Middle/exit unpinned: Tor's default selection per access.
            world.client.pin_path(entry=None)
            from repro.pts.base import ArchSet
            override = bridge if world.transport(pt).arch_set is \
                ArchSet.SERVER_IS_GUARD else None
            fetch = world.fetch_page_curl(pt, site, entry_override=override)
            results.append(_make_record(world, pt, fetch, TargetKind.WEBSITE,
                                        Method.CURL))
    means = mean_by_pt(results)
    xs, ys = results.paired_values("tor", "obfs4")
    test = paired_t_test(xs, ys)
    text = _fmt_means(means) + "\n\n" + test.describe()
    metrics = {"mean:tor": means["tor"], "mean:obfs4": means["obfs4"],
               "ratio": means["obfs4"] / means["tor"]}
    # Paper: "almost the same performance for vanilla Tor and obfs4".
    paper = {"ratio": 1.0}
    return ExperimentResult("fig4", "fixed guard comparison", text,
                            metrics=metrics, paper=paper, results=results)


@register("fig9", "PT overhead vs vanilla Tor on identical circuits", "Figure 9")
def _fig9(seed: int, scale: Scale) -> ExperimentResult:
    """Isolate each PT's own overhead (Section 5.2).

    Inseparable PTs (obfs4, dnstt, webtunnel) use the colocated
    guard/PT-server host; separable ones (shadowsocks, cloak,
    stegotorus, marionette, camoufler) have PT client and server in the
    client's own location, with the circuit pinned per website.
    """
    inseparable = ("obfs4", "dnstt", "webtunnel")
    separable = ("shadowsocks", "cloak", "stegotorus", "marionette",
                 "camoufler")
    pts = ("tor",) + inseparable + separable
    config = WorldConfig(seed=seed, use_private_servers=True, transports=pts,
                         tranco_size=max(scale.n_sites, 2), cbl_size=2,
                         server_city=WorldConfig().client_city)
    world = World(config)
    guard, bridge = make_colocated_guard_and_bridge(
        config.server_city, mbit(100), name=f"overhead{seed}")
    world.client.default_entry = guard
    rng = world.rng("fig9", "paths")
    from repro.pts.base import ArchSet

    diffs: dict[str, list[float]] = {pt: [] for pt in inseparable + separable}
    sites = world.tranco[:scale.n_sites]
    for site in sites:
        path = world.client.paths.select(rng)
        world.client.pin_path(entry=None, middle=path.middle, exit=path.exit)
        tor_fetch = world.fetch_page_curl("tor", site)
        for pt in inseparable + separable:
            world.client.pin_path(entry=None, middle=path.middle,
                                  exit=path.exit)
            override = bridge if world.transport(pt).arch_set is \
                ArchSet.SERVER_IS_GUARD else None
            fetch = world.fetch_page_curl(pt, site, entry_override=override,
                                          resample_loads=False)
            if fetch.bytes_received > 0:
                diffs[pt].append(fetch.duration_s - tor_fetch.duration_s)

    rows = []
    metrics = {}
    for pt, values in diffs.items():
        if not values:
            continue
        mean_diff = statistics.fmean(values)
        rows.append([pt, mean_diff, statistics.median(values),
                     min(values), max(values)])
        metrics[f"overhead:{pt}"] = mean_diff
    text = render_table(["pt", "mean diff (s)", "median", "min", "max"], rows,
                        precision=2)
    # Paper: most PTs introduce no significant overhead; marionette's
    # average website access time exceeds 30s (i.e. >25s over Tor).
    paper = {"overhead:obfs4": 0.0, "overhead:webtunnel": 0.5,
             "overhead:cloak": 0.3, "overhead:shadowsocks": 0.3,
             "overhead:stegotorus": 1.0, "overhead:dnstt": 2.0,
             "overhead:camoufler": 10.0, "overhead:marionette": 28.0}
    return ExperimentResult("fig9", "isolated PT overhead", text,
                            metrics=metrics, paper=paper)


# ---------------------------------------------------------------------------
# Figure 5 + Table 7: bulk downloads
# ---------------------------------------------------------------------------


def _file_campaign(seed: int, scale: Scale, *, surge: float,
                   pts: tuple[str, ...] = ALL_TRANSPORTS) -> tuple[World, ResultSet]:
    world = World(WorldConfig(seed=seed, snowflake_surge=surge,
                              transports=pts, tranco_size=2, cbl_size=2))
    runner = CampaignRunner(world, pacing=_FAST_PACING)
    results = runner.run_file_campaign(pts, world.files,
                                       attempts=scale.file_attempts)
    return world, results


@register("fig5", "File download time by size", "Figure 5")
def _fig5(seed: int, scale: Scale) -> ExperimentResult:
    world, results = _file_campaign(seed, scale,
                                    surge=post_september_level())
    complete = results.filter(status=Status.COMPLETE)
    rows = []
    metrics = {}
    for pt in results.pts():
        row = [pt]
        completions = 0
        for file in world.files:
            sub = complete.filter(pt=pt, target=file.name)
            if len(sub) >= 2:  # the paper's inclusion rule (>= 2 successes)
                mean = sub.mean_duration()
                row.append(mean)
                metrics[f"{pt}:{file.name}"] = mean
                completions += 1
            else:
                row.append(None)
        rows.append(row)
    text = render_table(
        ["pt"] + [f.name for f in world.files], rows, precision=1)
    paper = {"obfs4:file-10mb": 33.0, "obfs4:file-50mb": 64.0,
             "cloak:file-10mb": 36.0, "cloak:file-50mb": 53.0,
             "camoufler:file-10mb": 98.0, "camoufler:file-50mb": 173.0}
    return ExperimentResult("fig5", "bulk download times", text,
                            metrics=metrics, paper=paper, results=results)


@register("table7", "Paired t-tests, file downloads", "Table 7")
def _table7(seed: int, scale: Scale) -> ExperimentResult:
    world, results = _file_campaign(seed, scale,
                                    surge=post_september_level())
    complete = results.filter(status=Status.COMPLETE)
    tests = ttest_matrix(complete)
    text = ttest_table(tests)
    metrics = {_ttest_metric_key(k): v.mean_diff for k, v in tests.items()}
    # The paper's headline: obfs4 significantly faster than stegotorus
    # and marionette; no significant gap inside the fast group. The
    # matrix stores each pair once, in the order the transports first
    # completed a download, so each paper number is keyed the way the
    # matrix holds its pair, with the sign flipped when that is the
    # other way round.
    paper = {}
    for pair, value in (("obfs4-stegotorus", -97.9),
                        ("obfs4-marionette", -1194.5),
                        ("obfs4-cloak", 28.0)):
        a, b = pair.split("-")
        if f"{b}-{a}" in tests:
            pair, value = f"{b}-{a}", -value
        paper[_ttest_metric_key(pair)] = value
    return ExperimentResult("table7", "file-download t-tests", text,
                            metrics=metrics, paper=paper, results=results)


# ---------------------------------------------------------------------------
# Figure 6: time to first byte
# ---------------------------------------------------------------------------


@register("fig6", "Time to first byte ECDF", "Figure 6")
def _fig6(seed: int, scale: Scale) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, Method.CURL,
                                   surge=pre_september_level())
    ecdfs = ecdf_by_pt(results, value="ttfb_s", method=Method.CURL)
    rows = []
    metrics = {}
    for pt, ecdf in sorted(ecdfs.items(), key=lambda kv: kv[1].quantile(0.5)):
        below5 = ecdf.fraction_below(5.0)
        above20 = 1.0 - ecdf.fraction_below(20.0)
        rows.append([pt, ecdf.quantile(0.5), below5, above20])
        metrics[f"below5:{pt}"] = below5
        metrics[f"above20:{pt}"] = above20
    text = render_table(["pt", "median ttfb", "frac < 5s", "frac > 20s"],
                        rows)
    paper = {"below5:tor": 0.9, "below5:obfs4": 0.9, "below5:cloak": 0.9,
             "below5:dnstt": 0.85, "above20:marionette": 0.4,
             "below5:meek": 0.6, "below5:camoufler": 0.2}
    return ExperimentResult("fig6", "TTFB ECDF", text, metrics=metrics,
                            paper=paper, results=results)


# ---------------------------------------------------------------------------
# Figure 7: location variation
# ---------------------------------------------------------------------------


@register("fig7", "Location variation (meek, obfs4, snowflake)", "Figure 7")
def _fig7(seed: int, scale: Scale) -> ExperimentResult:
    pts = ("meek", "obfs4", "snowflake")
    config = WorldConfig(seed=seed, transports=("tor",) + pts,
                         tranco_size=max(scale.n_sites // 2, 2), cbl_size=2)
    cells = location_matrix(config, pts, n_sites=max(scale.n_sites // 2, 2),
                            repetitions=max(scale.site_repetitions, 1),
                            pacing=_FAST_PACING)
    rows = []
    metrics = {}
    for pt in pts:
        means = mean_by_client(cells, pt)
        for city, mean in means.items():
            rows.append([pt, city, mean])
            metrics[f"{pt}:{city}"] = mean
    text = render_table(["pt", "client", "mean access time (s)"], rows)
    # The paper reports *trends*: meek slowest everywhere; Bangalore
    # slower than London/Toronto (relays concentrate in EU/NA).
    ordering_ok = all(
        metrics[f"meek:{city}"] > metrics[f"obfs4:{city}"]
        for city in ("Bangalore", "London", "Toronto"))
    bangalore_penalty = statistics.fmean(
        metrics[f"{pt}:Bangalore"] for pt in pts) / statistics.fmean(
        metrics[f"{pt}:London"] for pt in pts)
    metrics["meek_slowest_everywhere"] = 1.0 if ordering_ok else 0.0
    metrics["bangalore_over_london"] = bangalore_penalty
    paper = {"meek_slowest_everywhere": 1.0, "bangalore_over_london": 1.3}
    return ExperimentResult("fig7", "location variation", text,
                            metrics=metrics, paper=paper)


# ---------------------------------------------------------------------------
# Figures 8a/8b: reliability
# ---------------------------------------------------------------------------


@register("fig8a", "Complete/partial/failed download fractions", "Figure 8a")
def _fig8a(seed: int, scale: Scale) -> ExperimentResult:
    world, results = _file_campaign(seed, scale,
                                    surge=post_september_level())
    fractions = reliability_by_pt(results)
    rows = []
    metrics = {}
    for pt, f in sorted(fractions.items(),
                        key=lambda kv: -kv[1][Status.PARTIAL]):
        rows.append([pt, f[Status.COMPLETE], f[Status.PARTIAL],
                     f[Status.FAILED]])
        metrics[f"incomplete:{pt}"] = f[Status.PARTIAL] + f[Status.FAILED]
    text = render_table(["pt", "complete", "partial", "failed"], rows)
    paper = {"incomplete:meek": 0.9, "incomplete:dnstt": 0.85,
             "incomplete:snowflake": 0.85, "incomplete:camoufler": 0.12,
             "incomplete:obfs4": 0.0, "incomplete:cloak": 0.0}
    return ExperimentResult("fig8a", "download reliability", text,
                            metrics=metrics, paper=paper, results=results)


@register("fig8b", "ECDF of file fraction downloaded", "Figure 8b")
def _fig8b(seed: int, scale: Scale) -> ExperimentResult:
    world, results = _file_campaign(
        seed, scale, surge=post_september_level(),
        pts=("meek", "dnstt", "snowflake"))
    rows = []
    metrics = {}
    for pt in ("meek", "dnstt", "snowflake"):
        fractions = results.filter(pt=pt).fractions_downloaded()
        ecdf = ECDF.from_values(fractions)
        below_40pct = ecdf.fraction_below(0.4)
        max_fraction = max(fractions)
        complete = sum(1 for f in fractions if f >= 1.0) / len(fractions)
        rows.append([pt, below_40pct, max_fraction, complete])
        metrics[f"below40pct:{pt}"] = below_40pct
        metrics[f"max_fraction:{pt}"] = max_fraction
        metrics[f"complete:{pt}"] = complete
    text = render_table(
        ["pt", "attempts with <40% of file", "max fraction seen",
         "complete fraction"], rows)
    # Paper: snowflake delivered <40% of the file in 60% of attempts;
    # meek topped out near 92%, dnstt near 96%; only 10-20% complete.
    paper = {"below40pct:snowflake": 0.6, "complete:meek": 0.1,
             "complete:dnstt": 0.15, "complete:snowflake": 0.15}
    return ExperimentResult("fig8b", "fraction-downloaded ECDF", text,
                            metrics=metrics, paper=paper, results=results)


# ---------------------------------------------------------------------------
# Figures 10a/10b + 12: the snowflake surge
# ---------------------------------------------------------------------------


@register("fig10a", "Snowflake user timeline", "Figure 10a")
def _fig10a(seed: int, scale: Scale) -> ExperimentResult:
    rows = [[p.month, p.users, round(p.surge_level, 2)]
            for p in SNOWFLAKE_USER_TIMELINE]
    text = render_table(["month", "users", "surge level"], rows, precision=0)
    metrics = {f"users:{p.month}": float(p.users)
               for p in SNOWFLAKE_USER_TIMELINE}
    paper = {"users:2022-08": 11_000.0, "users:2022-10": 25_000.0,
             "users:2023-03": 125_000.0}
    return ExperimentResult("fig10a", "snowflake users", text,
                            metrics=metrics, paper=paper)


def _snowflake_mean(seed: int, scale: Scale, surge: float,
                    label: str) -> tuple[float, ResultSet]:
    world = World(WorldConfig(seed=seed, snowflake_surge=surge,
                              transports=("tor", "snowflake"),
                              tranco_size=max(scale.n_sites, 2), cbl_size=2))
    runner = CampaignRunner(world, pacing=_FAST_PACING)
    results = runner.run_website_campaign(
        ["snowflake"], world.tranco[:scale.n_sites], method=Method.CURL,
        repetitions=scale.site_repetitions)
    return results.mean_duration(), results


@register("fig10b", "Snowflake before/after the Iran protests", "Figure 10b")
def _fig10b(seed: int, scale: Scale) -> ExperimentResult:
    pre_mean, pre = _snowflake_mean(seed, scale, pre_september_level(), "pre")
    post_mean, post = _snowflake_mean(seed, scale, post_september_level(),
                                      "post")
    pre_means = pre.per_target_means("snowflake")
    post_means = post.per_target_means("snowflake")
    common = [t for t in pre_means if t in post_means]
    test = paired_t_test([pre_means[t] for t in common],
                         [post_means[t] for t in common])
    text = render_table(["period", "mean access time (s)"],
                        [["pre-September", pre_mean],
                         ["post-September", post_mean]])
    text += "\n\n" + test.describe()
    metrics = {"mean:pre": pre_mean, "mean:post": post_mean,
               "mean_increase": post_mean - pre_mean}
    # Paper: pre M=3.42, post M=4.77, significant increase of ~1.35s.
    paper = {"mean:pre": 3.42, "mean:post": 4.77, "mean_increase": 1.35}
    return ExperimentResult("fig10b", "surge performance", text,
                            metrics=metrics, paper=paper)


@register("fig12", "Snowflake weekly monitoring, March 2023", "Figure 12")
def _fig12(seed: int, scale: Scale) -> ExperimentResult:
    """100 random Tranco sites x5, repeated weekly (paper Appendix A.2).

    One pre-unrest world and one March-2023 world (same seed, so the
    same guard and site sample); the five weekly batches run inside the
    overloaded world, differing only in measurement conditions.
    """
    from repro.measure.surge import surge_level_for
    march = surge_level_for("2023-03")
    rows = []
    metrics = {}
    pre_mean, _ = _snowflake_mean(seed, scale, pre_september_level(), "pre")
    rows.append(["pre-unrest", pre_mean])
    metrics["mean:pre"] = pre_mean

    world = World(WorldConfig(seed=seed, snowflake_surge=march,
                              transports=("tor", "snowflake"),
                              tranco_size=max(scale.n_sites, 2), cbl_size=2))
    runner = CampaignRunner(world, pacing=_FAST_PACING)
    for week in range(1, 6):
        weekly = runner.run_website_campaign(
            ["snowflake"], world.tranco[:scale.n_sites], method=Method.CURL,
            repetitions=scale.site_repetitions)
        mean = weekly.mean_duration()
        rows.append([f"2023-03 week {week}", mean])
        metrics[f"mean:week{week}"] = mean
        world.kernel.run(until=world.kernel.now + WEEK)
    text = render_table(["period", "mean access time (s)"], rows)
    metrics["all_weeks_above_pre"] = float(all(
        metrics[f"mean:week{w}"] > pre_mean for w in range(1, 6)))
    paper = {"all_weeks_above_pre": 1.0}
    return ExperimentResult("fig12", "post-unrest monitoring", text,
                            metrics=metrics, paper=paper)


# ---------------------------------------------------------------------------
# Figure 11 + Tables 8-9: speed index
# ---------------------------------------------------------------------------


@register("fig11", "Speed index via browsertime", "Figure 11")
def _fig11(seed: int, scale: Scale) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, Method.BROWSERTIME,
                                   surge=post_september_level())
    si_means = mean_by_pt(results, value="speed_index_s",
                          method=Method.BROWSERTIME)
    load_means = mean_by_pt(results, value="duration_s",
                            method=Method.BROWSERTIME)
    rows = [[pt, si_means[pt], load_means[pt]]
            for pt in sorted(si_means, key=si_means.get)]
    text = render_table(["pt", "mean speed index (s)", "mean load time (s)"],
                        rows)
    metrics = {f"si:{pt}": v for pt, v in si_means.items()}
    metrics["si_below_load_everywhere"] = float(all(
        si_means[pt] <= load_means[pt] for pt in si_means))
    # Paper: ordering matches selenium; SI lower than full load for all.
    paper = {"si_below_load_everywhere": 1.0, "si:obfs4": 8.0,
             "si:tor": 11.0, "si:meek": 34.0, "si:marionette": 40.0}
    return ExperimentResult("fig11", "speed index", text, metrics=metrics,
                            paper=paper, results=results)


@register("tables8_9", "Paired t-tests, speed index", "Tables 8-9")
def _tables8_9(seed: int, scale: Scale) -> ExperimentResult:
    _, results = _website_campaign(seed, scale, Method.BROWSERTIME,
                                   surge=post_september_level())
    tests = ttest_matrix(results, value="speed_index_s",
                         method=Method.BROWSERTIME)
    text = ttest_table(tests)
    metrics = {_ttest_metric_key(k): v.mean_diff for k, v in tests.items()}
    paper = {_ttest_metric_key("Tor-meek"): -26.4,
             _ttest_metric_key("Tor-obfs4"): -1.63,
             _ttest_metric_key("Tor-marionette"): -45.7}
    return ExperimentResult("tables8_9", "speed-index t-tests", text,
                            metrics=metrics, paper=paper, results=results)


# ---------------------------------------------------------------------------
# Section 4.7: transmission medium
# ---------------------------------------------------------------------------


@register("medium", "Wired vs wireless client access", "Section 4.7")
def _medium(seed: int, scale: Scale) -> ExperimentResult:
    pts = ("tor", "obfs4", "cloak", "dnstt", "meek")
    _, wired = _website_campaign(seed, scale, Method.CURL,
                                 surge=pre_september_level(), pts=pts)
    _, wireless = _website_campaign(seed, scale, Method.CURL,
                                    surge=pre_september_level(), pts=pts,
                                    medium=Medium.WIRELESS)
    wired_means = mean_by_pt(wired)
    wireless_means = mean_by_pt(wireless)
    rows = [[pt, wired_means[pt], wireless_means[pt],
             wireless_means[pt] / wired_means[pt]] for pt in pts]
    text = render_table(["pt", "wired (s)", "wireless (s)", "ratio"], rows)
    wired_order = sorted(pts, key=wired_means.get)
    wireless_order = sorted(pts, key=wireless_means.get)
    metrics = {f"ratio:{pt}": wireless_means[pt] / wired_means[pt]
               for pt in pts}
    metrics["ordering_preserved"] = float(wired_order == wireless_order)
    # Paper: "no observable change in the trends" when switching medium.
    paper = {"ordering_preserved": 1.0, "ratio:obfs4": 1.0,
             "ratio:meek": 1.0, "ratio:dnstt": 1.0}
    return ExperimentResult("medium", "medium change", text, metrics=metrics,
                            paper=paper)
