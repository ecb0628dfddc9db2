"""Cross-check the hand-rolled Student-t machinery against scipy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tdist import incomplete_beta, t_ppf, t_sf, t_two_sided_p

try:  # scipy is an optional, test-only oracle.
    from scipy import stats as sps
except ImportError:
    sps = None

needs_scipy = pytest.mark.skipif(sps is None, reason="scipy not installed")


@needs_scipy
@pytest.mark.parametrize("t,df", [
    (0.0, 5), (1.0, 5), (2.5, 10), (-1.5, 3), (10.0, 30), (0.3, 999),
])
def test_t_sf_matches_scipy(t, df):
    assert t_sf(t, df) == pytest.approx(sps.t.sf(t, df), rel=1e-8, abs=1e-12)


@needs_scipy
@given(st.floats(min_value=-50, max_value=50),
       st.integers(min_value=1, max_value=500))
@settings(max_examples=150, deadline=None)
def test_t_sf_matches_scipy_property(t, df):
    assert t_sf(t, df) == pytest.approx(sps.t.sf(t, df), rel=1e-6, abs=1e-10)


@needs_scipy
@pytest.mark.parametrize("q,df", [(0.975, 5), (0.95, 30), (0.995, 2), (0.6, 100)])
def test_t_ppf_matches_scipy(q, df):
    assert t_ppf(q, df) == pytest.approx(sps.t.ppf(q, df), rel=1e-6, abs=1e-8)


def test_two_sided_p_symmetry():
    assert t_two_sided_p(2.0, 10) == pytest.approx(t_two_sided_p(-2.0, 10))


def test_t_sf_at_zero_is_half():
    assert t_sf(0.0, 7) == pytest.approx(0.5)


def test_incomplete_beta_bounds():
    assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert incomplete_beta(2.0, 3.0, 1.0) == 1.0


@needs_scipy
@given(st.floats(min_value=0.2, max_value=8.0),
       st.floats(min_value=0.2, max_value=8.0),
       st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=150, deadline=None)
def test_incomplete_beta_matches_scipy(a, b, x):
    assert incomplete_beta(a, b, x) == pytest.approx(
        sps.beta.cdf(x, a, b), rel=1e-7, abs=1e-10)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        t_sf(1.0, 0)
    with pytest.raises(ValueError):
        t_ppf(0.0, 5)
    with pytest.raises(ValueError):
        t_ppf(1.0, 5)
