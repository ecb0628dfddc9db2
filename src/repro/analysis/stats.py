"""Paired t-tests and summary statistics (the paper's appendix tables).

For every PT pair the paper reports: 95% CI bounds, t-value, P-value,
and the mean difference of per-website access times (Tables 3-10).
:func:`paired_t_test` produces exactly those columns. The moment
computations route through :mod:`repro.analysis.backend`, whose
``fsum`` reductions make them independent of element order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis import backend
from repro.analysis.tdist import t_ppf, t_two_sided_p


@dataclass(frozen=True)
class PairedTTest:
    """Result of a paired t-test between two aligned samples a, b.

    ``mean_diff`` is mean(a - b): negative means ``a`` is smaller
    (faster, when the metric is a download time) — the same convention
    as the paper's "PT Pair" tables, where "Tor-dnstt: -4.79" says Tor
    is 4.79 s faster than dnstt.

    ``degenerate`` flags the sd_diff == 0 edge case: every pair differs
    by exactly the same amount, so the t statistic is ±infinity (or 0
    when the samples are identical), the CI collapses to the point
    ``[mean_diff, mean_diff]``, and ``p`` is reported as exactly 0.0
    (or 1.0 for identical samples) by convention rather than computed
    from the t distribution.
    """

    n: int
    mean_a: float
    mean_b: float
    mean_diff: float
    sd_diff: float
    t: float
    df: int
    p: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95
    degenerate: bool = False

    @property
    def significant(self) -> bool:
        return self.p < 0.05

    def describe(self) -> str:
        """One-line summary in the paper's reporting style.

        Exact zeros (the degenerate sd_diff == 0 branch) render as
        "<.001", never "P=0.000"; infinite t statistics render as
        "inf"/"-inf" rather than a formatted float artefact.
        """
        p_text = "<.001" if self.p < 0.001 else f"{self.p:.3f}"
        t_text = ("inf" if self.t == math.inf else
                  "-inf" if self.t == -math.inf else f"{self.t:.2f}")
        return (f"t={t_text}, P={p_text}, 95% CI "
                f"[{self.ci_low:.2f}, {self.ci_high:.2f}], "
                f"mean diff {self.mean_diff:.3f}")


def paired_t_test(a: Sequence[float], b: Sequence[float], *,
                  confidence: float = 0.95) -> PairedTTest:
    """Two-sided paired t-test of aligned samples."""
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two pairs")
    mean_a, mean_b, mean_diff, sd_diff = backend.paired_diff_stats(a, b)
    df = n - 1
    if sd_diff == 0:
        # Zero-variance differences: the statistic degenerates. Keep
        # the conventional p (0.0 for a consistent nonzero shift, 1.0
        # for identical samples) but flag it, pin t at ±inf/0, and
        # collapse the CI to the observed point difference.
        t_stat = math.inf if mean_diff > 0 else (-math.inf if mean_diff < 0 else 0.0)
        p = 0.0 if mean_diff != 0 else 1.0
        return PairedTTest(n=n, mean_a=mean_a, mean_b=mean_b,
                           mean_diff=mean_diff, sd_diff=0.0, t=t_stat,
                           df=df, p=p, ci_low=mean_diff, ci_high=mean_diff,
                           confidence=confidence, degenerate=True)
    se = sd_diff / math.sqrt(n)
    t_stat = mean_diff / se
    p = t_two_sided_p(t_stat, df)
    t_crit = t_ppf(0.5 + confidence / 2.0, df)
    return PairedTTest(
        n=n,
        mean_a=mean_a,
        mean_b=mean_b,
        mean_diff=mean_diff,
        sd_diff=sd_diff,
        t=t_stat,
        df=df,
        p=p,
        ci_low=mean_diff - t_crit * se,
        ci_high=mean_diff + t_crit * se,
        confidence=confidence,
    )


@dataclass(frozen=True)
class SummaryStats:
    """Mean/SD pair, reported as (M=…, SD=…) in the paper's prose."""

    n: int
    mean: float
    sd: float

    def describe(self) -> str:
        return f"M={self.mean:.2f}, SD={self.sd:.2f}"


def summary(values: Sequence[float]) -> SummaryStats:
    """Mean and standard deviation of a sample."""
    if len(values) == 0:
        raise ValueError("empty sample")
    mean, sd = backend.mean_sd(values)
    return SummaryStats(n=len(values), mean=mean, sd=sd)
