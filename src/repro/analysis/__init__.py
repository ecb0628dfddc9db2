"""Statistical analysis: paired t-tests, ECDFs, box stats, tables.

The batched reductions live in :mod:`repro.analysis.backend`: standard
library only, with exactly rounded (order-independent) sums.
"""

from repro.analysis import backend
from repro.analysis.aggregate import (
    box_by_pt,
    category_ttests,
    ecdf_by_pt,
    mean_by_pt,
    pair_label,
    pt_label,
    reliability_by_pt,
    ttest_matrix,
)
from repro.analysis.boxstats import BoxStats
from repro.analysis.ecdf import ECDF
from repro.analysis.stats import PairedTTest, SummaryStats, paired_t_test, summary
from repro.analysis.tables import (
    comparison_rows,
    format_p,
    format_t,
    render_table,
    ttest_table,
)
from repro.analysis.tdist import incomplete_beta, t_ppf, t_sf, t_two_sided_p

__all__ = [
    "BoxStats", "ECDF", "PairedTTest", "SummaryStats", "backend",
    "box_by_pt", "category_ttests", "comparison_rows", "ecdf_by_pt",
    "format_p", "format_t", "incomplete_beta", "mean_by_pt", "pair_label",
    "paired_t_test", "pt_label", "reliability_by_pt", "render_table",
    "summary", "t_ppf", "t_sf", "t_two_sided_p", "ttest_matrix",
    "ttest_table",
]
