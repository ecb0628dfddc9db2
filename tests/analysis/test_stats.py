"""Unit tests for paired t-tests against scipy's implementation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import paired_t_test, summary
from repro.simnet.rng import substream

try:  # scipy is an optional, test-only oracle.
    from scipy import stats as sps
except ImportError:
    sps = None

needs_scipy = pytest.mark.skipif(sps is None, reason="scipy not installed")


@needs_scipy
def test_paired_t_test_matches_scipy():
    rng = substream(1, "t")
    a = [rng.gauss(10, 2) for _ in range(50)]
    b = [x + rng.gauss(1.0, 1.5) for x in a]
    ours = paired_t_test(a, b)
    ref = sps.ttest_rel(a, b)
    assert ours.t == pytest.approx(ref.statistic, rel=1e-9)
    assert ours.p == pytest.approx(ref.pvalue, rel=1e-6)
    lo, hi = ref.confidence_interval(0.95)
    assert ours.ci_low == pytest.approx(lo, rel=1e-6)
    assert ours.ci_high == pytest.approx(hi, rel=1e-6)


@needs_scipy
@given(st.lists(st.tuples(st.floats(min_value=-100, max_value=100),
                          st.floats(min_value=-100, max_value=100)),
                min_size=3, max_size=60))
@settings(max_examples=80, deadline=None)
def test_paired_t_test_property_vs_scipy(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    diffs = [x - y for x, y in pairs]
    if max(diffs) - min(diffs) < 1e-9:
        return  # zero-variance branch tested separately
    ours = paired_t_test(a, b)
    ref = sps.ttest_rel(a, b)
    assert ours.t == pytest.approx(ref.statistic, rel=1e-6, abs=1e-9)
    assert ours.p == pytest.approx(ref.pvalue, rel=1e-4, abs=1e-9)


def test_sign_convention_matches_paper():
    # "Tor-Dnstt: mean diff -4.79" = Tor (a) faster than dnstt (b).
    tor = [2.0, 2.2, 2.1]
    dnstt = [6.0, 7.0, 7.3]
    result = paired_t_test(tor, dnstt)
    assert result.mean_diff < 0
    assert result.t < 0


def test_zero_variance_differences():
    result = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert result.mean_diff == pytest.approx(-1.0)
    assert result.p == 0.0
    identical = paired_t_test([1.0, 2.0], [1.0, 2.0])
    assert identical.p == 1.0


def test_degenerate_branch_is_flagged_with_point_ci():
    """Regression: sd_diff=0 with a nonzero shift must be explicit.

    The conventional p=0.0 stays, but only together with the
    ``degenerate`` flag, t pinned at ±inf, and the CI collapsed to the
    observed point difference.
    """
    result = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert result.degenerate
    assert result.t == math.inf
    assert (result.ci_low, result.ci_high) == (1.0, 1.0)
    assert result.p == 0.0
    negative = paired_t_test([1.0, 2.0], [2.0, 3.0])
    assert negative.t == -math.inf
    assert (negative.ci_low, negative.ci_high) == (-1.0, -1.0)
    identical = paired_t_test([1.0, 2.0], [1.0, 2.0])
    assert identical.degenerate and identical.t == 0.0 and identical.p == 1.0
    regular = paired_t_test([1.0, 2.0, 4.0], [0.5, 0.4, 0.3])
    assert not regular.degenerate


def test_describe_never_prints_p_zero():
    """Exact-zero P values render as "<.001", never "P=0.000"."""
    degenerate = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    text = degenerate.describe()
    assert "P=<.001" in text
    assert "P=0.000" not in text
    assert "t=inf" in text
    negative = paired_t_test([1.0, 2.0], [2.0, 3.0]).describe()
    assert "t=-inf" in negative
    assert "95% CI [1.00, 1.00]" in text


def test_significance_flag():
    a = [1.0, 1.1, 0.9, 1.05, 0.95] * 4
    b = [5.0, 5.1, 4.9, 5.05, 4.95] * 4
    assert paired_t_test(a, b).significant
    rng = substream(2, "ns")
    c = [rng.gauss(5, 1) for _ in range(10)]
    d = [rng.gauss(5, 1) for _ in range(10)]
    result = paired_t_test(c, d)
    assert result.p > 0.01  # same distribution: rarely significant


def test_describe_uses_paper_convention():
    a = [1.0] * 10 + [1.2] * 10
    b = [9.0] * 10 + [9.5] * 10
    text = paired_t_test(a, b).describe()
    assert "P=<.001" in text
    assert "95% CI" in text


def test_input_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        summary([])


def test_summary_stats():
    s = summary([2.0, 4.0, 6.0])
    assert s.mean == pytest.approx(4.0)
    assert s.sd == pytest.approx(2.0)
    assert "M=4.00" in s.describe()
