"""Aggregation helpers bridging result sets and the statistics layer.

Every reduction here extracts its values through the result set's
columnar view (one pass over the records, grouped by the backend
engine) instead of re-filtering the full record list per transport —
the old per-PT ``filter()`` loops were O(PTs x records) and dominated
paper-scale analysis runs.

The ``results`` argument is a
:class:`~repro.measure.records.ReducibleResults`: the in-memory
:class:`~repro.measure.records.ResultSet` or the out-of-core
:class:`~repro.measure.store.ShardedResultStore`. Both reduce through
one engine, so the same figure/table code runs over campaigns that
never fit in RAM.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis import backend
from repro.analysis.boxstats import BoxStats
from repro.analysis.ecdf import ECDF
from repro.analysis.stats import PairedTTest, paired_t_test
from repro.measure.records import Method, ReducibleResults

#: Display label for the vanilla-Tor baseline in t-test tables.
_BASELINE_LABEL = "Tor"


def pt_label(pt: str, category: str) -> str:
    """Table label for one transport: the registry name, verbatim.

    Only the baseline is renamed (the paper prints vanilla Tor as
    "Tor"). Everything else keeps its registry spelling — the previous
    ``str.capitalize()`` mangled multi-case names and could collide two
    distinct transports into one table key.
    """
    return _BASELINE_LABEL if category == "baseline" else pt


def pair_label(pt_a: str, pt_b: str, categories: Mapping[str, str]) -> str:
    """The paper-style "A-B" key for one transport pair."""
    return (f"{pt_label(pt_a, categories.get(pt_a, ''))}-"
            f"{pt_label(pt_b, categories.get(pt_b, ''))}")


def box_by_pt(results: ReducibleResults, *, value: str = "duration_s",
              method: Optional[Method] = None) -> dict[str, BoxStats]:
    """Per-PT box statistics of per-target means (box-plot figures)."""
    table = results.per_target_mean_table(value, method)
    return {pt: BoxStats.from_values(list(means.values()))
            for pt, means in table.items()}


def mean_by_pt(results: ReducibleResults, *, value: str = "duration_s",
               method: Optional[Method] = None) -> dict[str, float]:
    """Per-PT mean over per-target means."""
    table = results.per_target_mean_table(value, method)
    return {pt: backend.mean(list(means.values()))
            for pt, means in table.items()}


def ttest_matrix(results: ReducibleResults, *, value: str = "duration_s",
                 method: Optional[Method] = None,
                 pairs: Optional[list[tuple[str, str]]] = None,
                 ) -> dict[str, PairedTTest]:
    """Paired t-tests for PT pairs (the paper's appendix tables).

    Default pairs: every unordered combination of transports present.
    Keys are "A-B" strings built by :func:`pair_label`; labels use the
    lenient (first-seen) category lookup, so inconsistent categories on
    transports outside the requested pairs never fail the matrix —
    only :func:`category_ttests` is strict about them.
    """
    pts = results.pts()
    if pairs is None:
        pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    table = results.per_target_mean_table(value, method)
    categories = results.pt_categories(strict=False)
    tests = {}
    for a, b in pairs:
        means_a = table.get(a, {})
        means_b = table.get(b, {})
        common = [t for t in means_a if t in means_b]
        if len(common) >= 2:
            xs = [means_a[t] for t in common]
            ys = [means_b[t] for t in common]
            tests[pair_label(a, b, categories)] = paired_t_test(xs, ys)
    return tests


def category_ttests(results: ReducibleResults, *, value: str = "duration_s",
                    method: Optional[Method] = None) -> dict[str, PairedTTest]:
    """Paired t-tests between PT *categories* (Table 10).

    Per target, each category's value is the mean over its member PTs;
    the baseline category is reported as "Tor". A transport's category
    is derived from all of its records (``ValueError`` on
    inconsistency — a mis-merged result set would silently skew the
    table otherwise).
    """
    table = results.per_target_mean_table(value, method)
    categories = results.pt_categories()
    by_category: dict[str, dict[str, list[float]]] = {}
    for pt, means in table.items():
        category = categories[pt]
        label = _BASELINE_LABEL if category == "baseline" else category
        bucket = by_category.setdefault(label, {})
        for target, mean in means.items():
            bucket.setdefault(target, []).append(mean)

    reduced = {
        label: {t: backend.mean(vs) for t, vs in targets.items()}
        for label, targets in by_category.items()
    }
    labels = list(reduced)
    tests = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            common = [t for t in reduced[a] if t in reduced[b]]
            if len(common) >= 2:
                xs = [reduced[a][t] for t in common]
                ys = [reduced[b][t] for t in common]
                tests[f"{a}-{b}"] = paired_t_test(xs, ys)
    return tests


def ecdf_by_pt(results: ReducibleResults, *, value: str = "ttfb_s",
               method: Optional[Method] = None) -> dict[str, ECDF]:
    """Per-PT ECDF over raw record values (TTFB/fraction figures).

    ``method`` restricts the sample to one access method — without it,
    mixed-method result sets silently blended curl and selenium
    distributions into one curve.
    """
    grouped = results.values_by(value, by="pt", method=method, sort=True)
    return {pt: ECDF.from_sorted(values)
            for pt, values in grouped.items() if values}


def reliability_by_pt(results: ReducibleResults) -> dict[str, Mapping]:
    """Per-PT complete/partial/failed fractions (Figure 8a)."""
    return results.status_fractions_by_pt()
