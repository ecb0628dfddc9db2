"""The paper's findings, as one table checked at ten seeds.

Every ordering and band this reproduction claims about PTPerf is one
row of ``CLAIMS``: an id, the paper section it cites, the sources it
reads, a predicate over one seed's results, and ``held_at_parent``, the
number of seeds out of 10 at which the row held when it was recorded.

Sources are the registered experiments, run at seeds 1-10 at
``Scale.tiny()`` by the session fixture ``tiny_seed_runs``
(``tests/conftest.py``), plus one model probe, ``first_hop``
(Section 4.2.1's ablation, below). A predicate receives one
``ExperimentResult`` per source, all at the same seed. It reads
``.metrics`` and ``.paper``, or ``.results`` where the value is
record-level.

The substrate is a simulator, so a claim about a distribution can miss
at an unlucky seed. One rule sets every floor: a row passes when it
holds at ``held_at_parent - 3`` or more of the ten seeds. The margin
is meant to absorb a change that only reshuffles the random stream,
while a change to the science (for example, loading every bridge like
a volunteer guard) drops the Section 4.2.1 rows below it. Two rows are
closer to their floor than their counts suggest; see the comment on
``fig2b.pts_beat_tor``.

Where the paper states one claim that several projections can check,
the row keeps the tightest bound any earlier check used. A conjunction
that held at fewer than 8 of 10 seeds is split into its atoms, so a
weak atom cannot hide strong ones. Do not tune the model, the bounds
or the seeds to move a row: if a change means to move one, record the
new count and say why.

Run the table alone with ``pytest tests/calibration -q``; per-seed
comparisons for one experiment come from
``python -m repro run <id> --scale tiny --seeds 1 2 ... 10``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.analysis import ecdf_by_pt, mean_by_pt
from repro.core import World, WorldConfig
from repro.core.config import Scale
from repro.core.experiments import ExperimentResult
from repro.measure import CampaignRunner, Method
from repro.measure.ethics import PacingPolicy
from repro.pts.base import Category
from repro.pts.registry import by_category
from repro.simnet.background import VOLUNTEER_GUARD_LOAD, LoadModel
from repro.units import mbit
from repro.web.types import Status

#: Seeds a row may lose, against its count when recorded.
MARGIN = 3

#: The model probe's source id.
FIRST_HOP = "first_hop"


@dataclass(frozen=True)
class Claim:
    id: str
    section: str
    sources: tuple[str, ...]
    holds: Callable[..., bool] = field(repr=False)
    held_at_parent: int

    @property
    def floor(self) -> int:
        return self.held_at_parent - MARGIN


# -- the first-hop probe (Section 4.2.1) ----------------------------------


def _first_hop(seed: int, scale: Scale) -> ExperimentResult:
    """obfs4's selenium advantage over vanilla Tor, with its managed
    bridge and with that bridge carrying a volunteer guard's load.

    The paper's explanation for PTs beating Tor: bridges are less
    loaded than volunteer guards, and the PT machinery itself costs
    almost nothing. Equalising the load should remove the advantage.
    """
    n_sites = scale.n_sites
    metrics = {}
    for label, volunteer_load in (("managed", False), ("volunteer", True)):
        world = World(WorldConfig(seed=seed, transports=("tor", "obfs4"),
                                  tranco_size=n_sites, cbl_size=2))
        if volunteer_load:
            bridge = world.transport("obfs4").bridge
            # Volunteer load scales with capacity (bandwidth-weighted
            # selection): emulate a volunteer of the bridge's size.
            bridge.spec.load_model = LoadModel(
                mean=VOLUNTEER_GUARD_LOAD.mean
                * bridge.bandwidth_bps / mbit(100))
        runner = CampaignRunner(world, pacing=PacingPolicy(
            gap_between_accesses_s=0.5, batch_size=0))
        results = runner.run_website_campaign(
            ["tor", "obfs4"], world.tranco[:n_sites],
            method=Method.SELENIUM, repetitions=scale.site_repetitions)
        means = mean_by_pt(results, method=Method.SELENIUM)
        metrics[f"advantage:{label}"] = means["tor"] - means["obfs4"]
    return ExperimentResult(FIRST_HOP, "first-hop load ablation", "",
                            metrics=metrics, paper={})


@pytest.fixture(scope="module")
def first_hop_runs(tiny_seed_runs) -> list[ExperimentResult]:
    return [_first_hop(seed, tiny_seed_runs.scale)
            for seed in tiny_seed_runs.seeds]


# -- predicates and helpers the rows call ---------------------------------


def _between(low: float, value: float, high: float) -> bool:
    return low < value < high


def _slowest(result: ExperimentResult, pt: str) -> bool:
    return result.metrics[pt] == max(result.metrics.values())


def _signs_agree(result: ExperimentResult, clear_cut: float) -> bool:
    """Every pair the paper reports is measured, and every pair it
    reports beyond ``clear_cut`` seconds has the paper's sign."""
    measured = result.metrics
    return (all(key in measured for key in result.paper)
            and all(measured[key] * paper > 0
                    for key, paper in result.paper.items()
                    if abs(paper) > clear_cut))


def _category_means_ordered(result: ExperimentResult) -> bool:
    """Fully-encrypted and proxy-layer PTs beat tunneling and mimicry."""
    def category_mean(category: Category) -> float:
        names = by_category(category)
        return sum(result.metrics[n] for n in names) / len(names)

    fully = category_mean(Category.FULLY_ENCRYPTED)
    proxy = category_mean(Category.PROXY_LAYER)
    mimicry = category_mean(Category.MIMICRY)
    return (fully < category_mean(Category.TUNNELING) and fully < mimicry
            and proxy < mimicry)


def _complete_50mb(result: ExperimentResult, pt: str):
    return result.results.filter(status=Status.COMPLETE, pt=pt,
                                 target="file-50mb")


def _fast_group_completes_50mb(result: ExperimentResult) -> bool:
    """obfs4, cloak, psiphon and webtunnel complete 50 MB downloads;
    obfs4 and cloak take 30-130 s (paper: 64 s and 53 s)."""
    if not all(_complete_50mb(result, pt)
               for pt in ("obfs4", "cloak", "psiphon", "webtunnel")):
        return False
    return all(_between(30, _complete_50mb(result, pt).mean_duration(), 130)
               for pt in ("obfs4", "cloak"))


def _camoufler_about_3x_obfs4(result: ExperimentResult) -> bool:
    """Paper: camoufler 173 s vs obfs4 64 s for 50 MB. Both must pass
    Figure 5's inclusion rule (two or more complete downloads)."""
    m = result.metrics
    return ("camoufler:file-50mb" in m and "obfs4:file-50mb" in m
            and _between(1.6, m["camoufler:file-50mb"] / m["obfs4:file-50mb"],
                         6.0))


def _marionette_20mb_over_4x_obfs4(result: ExperimentResult) -> bool:
    complete = result.results.filter(status=Status.COMPLETE,
                                     target="file-20mb")
    mario = complete.filter(pt="marionette")
    obfs4 = complete.filter(pt="obfs4")
    return bool(mario and obfs4) and \
        mario.mean_duration() > 4 * obfs4.mean_duration()


def _status(result: ExperimentResult, pt: str) -> dict[Status, float]:
    return result.results.filter(pt=pt).status_fractions()


def _ttfb(result: ExperimentResult):
    return ecdf_by_pt(result.results, value="ttfb_s", method=Method.CURL)


def _obfs4_beats_marionette_on_files(result: ExperimentResult) -> bool:
    """Paper: obfs4 is ~1195 s faster than marionette (Table 7)."""
    diff = result.metrics.get("diff:obfs4-marionette")
    if diff is None:
        diff = -result.metrics.get("diff:marionette-obfs4", 0.0)
    return diff < -100


def _fixed_circuit_parity(result: ExperimentResult) -> bool:
    """Identical first hop: Tor, obfs4 and webtunnel means within 35 %."""
    means = [result.metrics[f"mean:{pt}"]
             for pt in ("tor", "obfs4", "webtunnel")]
    return max(means) - min(means) < 0.35 * min(means)


def _meek_ttfb_mostly_2_5_to_7_5s(result: ExperimentResult) -> bool:
    meek = _ttfb(result)["meek"]
    return meek.fraction_below(7.5) - meek.fraction_below(2.5) > 0.6


def _ttfb_below_5s(pt: str) -> Callable[[ExperimentResult], bool]:
    """Paper: most PTs deliver the first byte within 5 s for >80 % of
    sites (0.7 here: 8 sites instead of 1000)."""
    return lambda result: result.metrics[f"below5:{pt}"] > 0.7


_FAST_CURL = ("obfs4", "cloak", "conjure", "shadowsocks", "webtunnel")
_RELIABLE_FILES = ("obfs4", "cloak", "psiphon", "webtunnel", "shadowsocks",
                   "stegotorus", "conjure", "tor")


CLAIMS: list[Claim] = [
    # -- curl website access (Figure 2a, intro, Tables 3-4, 10) --
    Claim("fig2a.tor_band", "Intro: Tor 2.3 s via curl", ("fig2a",),
          lambda r: _between(1.5, r.metrics["tor"], 3.6), 9),
    Claim("fig2a.dnstt_band", "Intro: dnstt 4.4 s", ("fig2a",),
          lambda r: _between(3.0, r.metrics["dnstt"], 6.5), 10),
    Claim("fig2a.meek_band", "Intro: meek 5.8 s", ("fig2a",),
          lambda r: _between(4.0, r.metrics["meek"], 8.5), 10),
    Claim("fig2a.camoufler_band", "Intro: camoufler 12.8 s", ("fig2a",),
          lambda r: _between(9.0, r.metrics["camoufler"], 17.0), 9),
    Claim("fig2a.marionette_band", "Intro: marionette 20.8 s", ("fig2a",),
          lambda r: _between(15.0, r.metrics["marionette"], 29.0), 6),
    Claim("fig2a.fast_group_near_tor", "Tables 3-4", ("fig2a",),
          lambda r: all(abs(r.metrics[pt] - r.metrics["tor"]) < 2.2
                        for pt in _FAST_CURL), 10),
    Claim("fig2a.obfs4_not_slower_than_tor", "Table 3: Tor-obfs4 +1.13",
          ("fig2a",),
          lambda r: r.metrics["obfs4"] <= r.metrics["tor"] + 0.2, 8),
    Claim("fig2a.marionette_slowest", "Section 4.2", ("fig2a",),
          lambda r: _slowest(r, "marionette"), 10),
    Claim("fig2a.camoufler_slowest_tunneling", "Section 4.2", ("fig2a",),
          lambda r: r.metrics["camoufler"] > max(r.metrics["dnstt"],
                                                 r.metrics["webtunnel"]),
          10),
    Claim("fig2a.meek_slowest_proxy_layer", "Section 4.2", ("fig2a",),
          lambda r: all(r.metrics["meek"] > r.metrics[pt]
                        for pt in ("snowflake", "conjure", "psiphon")), 10),
    Claim("fig2a.category_ordering", "Table 10", ("fig2a",),
          _category_means_ordered, 10),
    Claim("tables3_4.signs_agree", "Tables 3-4", ("tables3_4",),
          lambda r: _signs_agree(r, clear_cut=2.0), 10),
    Claim("table10.category_signs", "Table 10", ("table10",),
          lambda r: (r.metrics["diff:fully encrypted-mimicry"] < 0
                     and r.metrics["diff:fully encrypted-tunneling"] < 0
                     and r.metrics["diff:proxy layer-tunneling"] < 0
                     and r.metrics["diff:mimicry-Tor"] > 0), 10),
    # -- selenium website access (Figure 2b, Tables 5-6) --
    # At seeds 11-20 this row and tables5_6.signs_agree (the same
    # campaign) hold at only 4 of 10: at 8 sites the Section 4.2.1
    # headline is a weak effect, not a settled one.
    Claim("fig2b.pts_beat_tor", "Section 4.2.1", ("fig2b",),
          lambda r: all(r.metrics[pt] < r.metrics["tor"]
                        for pt in ("obfs4", "webtunnel", "conjure")), 9),
    Claim("fig2b.no_camoufler", "Section 4.2", ("fig2b",),
          lambda r: "camoufler" not in r.metrics, 10),
    Claim("fig2b.snowflake_overloaded", "Sections 4.2, 5.3", ("fig2b",),
          lambda r: r.metrics["snowflake"] > 1.5 * r.metrics["conjure"], 10),
    Claim("fig2b.worst_performers", "Figure 2b", ("fig2b",),
          lambda r: (_slowest(r, "marionette")
                     and r.metrics["meek"] > r.metrics["snowflake"]), 10),
    Claim("fig2b.slower_than_curl", "Section 4.2", ("fig2a", "fig2b"),
          lambda curl, selenium: all(
              mean > curl.metrics[pt]
              for pt, mean in selenium.metrics.items()), 10),
    Claim("tables5_6.signs_agree", "Tables 5-6", ("tables5_6",),
          lambda r: _signs_agree(r, clear_cut=3.0), 9),
    # -- fixed circuits and PT overhead (Section 4.2.1, Figures 3-4, 9) --
    Claim("fig3a.fixed_circuit_parity", "Figure 3a", ("fig3a",),
          _fixed_circuit_parity, 10),
    Claim("fig3b.most_diffs_small", "Figure 3b", ("fig3b",),
          lambda r: r.metrics["frac_below_5s"] > 0.75, 10),
    Claim("fig4.fixed_guard_parity", "Figure 4", ("fig4",),
          lambda r: _between(0.75, r.metrics["ratio"], 1.25), 10),
    Claim("fig9.marionette_overhead_dominates", "Section 5.2", ("fig9",),
          lambda r: (r.metrics["overhead:marionette"] > 8.0
                     and all(abs(r.metrics[f"overhead:{pt}"])
                             < 0.35 * r.metrics["overhead:marionette"]
                             for pt in ("obfs4", "cloak", "shadowsocks",
                                        "webtunnel"))), 10),
    Claim("first_hop.obfs4_advantage", "Section 4.2.1", (FIRST_HOP,),
          lambda r: r.metrics["advantage:managed"] > 1.0, 9),
    Claim("first_hop.advantage_collapses", "Section 4.2.1", (FIRST_HOP,),
          lambda r: (r.metrics["advantage:volunteer"]
                     < 0.5 * r.metrics["advantage:managed"]), 5),
    # -- bulk downloads (Figure 5, Table 7, Section 4.3) --
    Claim("fig5.fast_group_completes_50mb", "Section 4.3", ("fig5",),
          _fast_group_completes_50mb, 10),
    Claim("fig5.camoufler_about_3x_obfs4", "Section 4.3", ("fig5",),
          _camoufler_about_3x_obfs4, 10),
    Claim("fig5.sizes_increase", "Figure 5", ("fig5",),
          lambda r: all(f"{pt}:file-10mb" in r.metrics
                        and f"{pt}:file-50mb" in r.metrics
                        and r.metrics[f"{pt}:file-50mb"]
                        > r.metrics[f"{pt}:file-10mb"]
                        for pt in ("obfs4", "cloak")), 10),
    Claim("fig5.meek_excluded_from_100mb", "Figure 5", ("fig5",),
          lambda r: "meek:file-100mb" not in r.metrics, 10),
    Claim("table7.marionette_20mb_over_4x_obfs4", "Table 7", ("table7",),
          _marionette_20mb_over_4x_obfs4, 10),
    Claim("table7.obfs4_beats_marionette", "Table 7", ("table7",),
          _obfs4_beats_marionette_on_files, 10),
    # -- time to first byte (Figure 6) --
    Claim("fig6.tor_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("tor"), 10),
    Claim("fig6.obfs4_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("obfs4"), 10),
    Claim("fig6.cloak_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("cloak"), 10),
    Claim("fig6.shadowsocks_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("shadowsocks"), 10),
    Claim("fig6.webtunnel_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("webtunnel"), 10),
    Claim("fig6.conjure_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("conjure"), 10),
    Claim("fig6.dnstt_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("dnstt"), 10),
    Claim("fig6.snowflake_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("snowflake"), 7),
    Claim("fig6.psiphon_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("psiphon"), 8),
    Claim("fig6.stegotorus_below_5s", "Figure 6", ("fig6",),
          _ttfb_below_5s("stegotorus"), 10),
    Claim("fig6.marionette_above_20s", "Figure 6", ("fig6",),
          lambda r: _between(0.15, r.metrics["above20:marionette"], 0.65),
          8),
    Claim("fig6.meek_mostly_2_5_to_7_5s", "Figure 6", ("fig6",),
          _meek_ttfb_mostly_2_5_to_7_5s, 10),
    Claim("fig6.camoufler_median_above_5s", "Figure 6", ("fig6",),
          lambda r: (_ttfb(r)["camoufler"].quantile(0.5) > 5.0
                     and r.metrics["below5:camoufler"] < 0.5), 10),
    # -- locations (Figure 7, Section 4.5) --
    Claim("fig7.meek_slowest_everywhere", "Section 4.5", ("fig7",),
          lambda r: r.metrics["meek_slowest_everywhere"] == 1.0, 10),
    Claim("fig7.bangalore_penalty", "Section 4.5", ("fig7",),
          lambda r: r.metrics["bangalore_over_london"] > 1.05, 10),
    # -- reliability (Figures 8a/8b, Section 4.6) --
    Claim("fig8a.unreliable_trio", "Section 4.6", ("fig8a",),
          lambda r: all(r.metrics[f"incomplete:{pt}"] > 0.7
                        for pt in ("meek", "dnstt", "snowflake")), 10),
    Claim("fig8a.obfs4_cloak_reliable", "Figure 8a", ("fig8a",),
          lambda r: all(r.metrics[f"incomplete:{pt}"] < 0.2
                        for pt in ("obfs4", "cloak")), 10),
    Claim("fig8a.reliable_rest", "Section 4.6", ("fig8a",),
          lambda r: all(_status(r, pt)[Status.COMPLETE] > 0.7
                        for pt in _RELIABLE_FILES), 10),
    Claim("fig8a.meek_camoufler_fail_outright", "Figure 8a", ("fig8a",),
          lambda r: _between(0.01, sum(_status(r, pt)[Status.FAILED]
                                       for pt in ("meek", "camoufler")) / 2,
                             0.35), 9),
    Claim("fig8b.snowflake_dies_early", "Figure 8b", ("fig8b",),
          lambda r: (r.metrics["below40pct:snowflake"] > 0.35
                     and r.metrics["below40pct:snowflake"]
                     > r.metrics["below40pct:dnstt"] - 0.15), 10),
    Claim("fig8b.few_complete", "Figure 8b", ("fig8b",),
          lambda r: all(r.metrics[f"complete:{pt}"] < 0.45
                        for pt in ("meek", "dnstt", "snowflake")), 10),
    # -- the snowflake surge (Figures 10a/10b, 12, Section 5.3) --
    Claim("fig10a.september_surge", "Figure 10a", ("fig10a",),
          lambda r: (r.metrics["users:2022-09"] > 3 * r.metrics["users:2022-08"]
                     and r.metrics["users:2022-10"] < r.metrics["users:2022-09"]
                     and r.metrics["users:2023-03"] == max(
                         v for k, v in r.metrics.items()
                         if k.startswith("users:"))), 10),
    Claim("fig10b.surge_slows_snowflake", "Section 5.3", ("fig10b",),
          lambda r: (r.metrics["mean:post"] > r.metrics["mean:pre"]
                     and r.metrics["mean_increase"] > 0.4), 10),
    Claim("fig12.all_weeks_slower", "Figure 12", ("fig12",),
          lambda r: r.metrics["all_weeks_above_pre"] == 1.0, 9),
    # -- speed index (Figure 11, Tables 8-9) --
    Claim("fig11.speed_index_below_load", "Figure 11", ("fig11",),
          lambda r: r.metrics["si_below_load_everywhere"] == 1.0, 10),
    Claim("fig11.ordering_matches_selenium", "Figure 11", ("fig11",),
          lambda r: (r.metrics["si:meek"] > r.metrics["si:obfs4"]
                     and r.metrics["si:marionette"] > r.metrics["si:tor"]),
          10),
    Claim("tables8_9.signs_agree", "Tables 8-9", ("tables8_9",),
          lambda r: _signs_agree(r, clear_cut=3.0), 10),
    # -- medium, catalogues (Section 4.7, Tables 1-2) --
    Claim("medium.no_trend_change", "Section 4.7", ("medium",),
          lambda r: all(_between(0.7, value, 1.5)
                        for key, value in r.metrics.items()
                        if key.startswith("ratio:")), 10),
    Claim("table1.covers_every_type", "Table 1", ("table1",),
          lambda r: (len(r.metrics) == 8
                     and all(v > 0 for v in r.metrics.values())), 10),
    Claim("table2.survey_counts", "Table 2", ("table2",),
          lambda r: (r.metrics["total"] == 28
                     and r.metrics["evaluated"] == 12), 10),
]


def test_table_is_well_formed():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    for claim in CLAIMS:
        assert claim.floor > 0 and claim.held_at_parent <= 10, claim.id


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds_at_its_floor(claim, tiny_seed_runs, request):
    # The probe is a fixture of its own, run only when a row reads it.
    per_source = [request.getfixturevalue("first_hop_runs")
                  if source == FIRST_HOP else tiny_seed_runs[source]
                  for source in claim.sources]
    held = [seed for seed, results in zip(tiny_seed_runs.seeds,
                                          zip(*per_source))
            if claim.holds(*results)]
    assert len(held) >= claim.floor, (
        f"{claim.id} ({claim.section}) held at {len(held)}/"
        f"{len(tiny_seed_runs.seeds)} seeds {held}; "
        f"held_at_parent={claim.held_at_parent}, floor={claim.floor}")
