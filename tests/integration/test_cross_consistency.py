"""Cross-experiment consistency: different views must agree.

The paper's figures are different projections of one measurement
campaign; our experiments rebuild worlds independently, so these tests
pin down that the projections stay coherent with each other. The
paper's claims themselves live in tests/calibration/test_paper_claims.py.
"""

import pytest

from repro.core.config import Scale
from repro.core.experiments import run_experiment

SCALE = Scale(n_sites=24, site_repetitions=2, file_attempts=6,
              fixed_circuit_iterations=10)
SEED = 99


@pytest.fixture(scope="module")
def fig2a():
    return run_experiment("fig2a", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def tables3_4():
    return run_experiment("tables3_4", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def fig5():
    return run_experiment("fig5", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def fig8a():
    return run_experiment("fig8a", seed=SEED, scale=SCALE)


def test_fig2a_means_agree_with_ttest_signs(fig2a, tables3_4):
    """If fig2a says A is faster than B, the paired test must agree in
    sign (same seed, same campaign design)."""
    means = fig2a.metrics
    for key, diff in tables3_4.metrics.items():
        pair = key.split(":", 1)[1]
        a, b = (name.lower() for name in pair.split("-", 1))
        if a == "tor" or a in means:
            mean_a = means.get(a if a != "tor" else "tor")
            mean_b = means.get(b)
            if mean_a is None or mean_b is None:
                continue
            if abs(mean_a - mean_b) > 0.8:  # clear-cut gaps only
                assert (mean_a - mean_b) * diff > 0, (pair, mean_a, mean_b, diff)


def test_fig5_exclusions_match_fig8a_reliability(fig5, fig8a):
    """PTs excluded from Figure 5's large files (fewer than two
    successful downloads) are exactly the unreliable ones in Figure 8a."""
    incomplete = {pt.split(":")[1]: v for pt, v in fig8a.metrics.items()}
    for pt, frac in incomplete.items():
        has_100mb = f"{pt}:file-100mb" in fig5.metrics
        if frac > 0.85:
            assert not has_100mb, pt
        if frac < 0.1:
            assert has_100mb, pt


def test_experiment_worlds_isolated():
    """Running one experiment must not leak state into the next."""
    first = run_experiment("fig2a", seed=SEED, scale=Scale.tiny())
    run_experiment("fig10b", seed=SEED, scale=Scale.tiny())  # mutates surge
    again = run_experiment("fig2a", seed=SEED, scale=Scale.tiny())
    assert first.metrics == again.metrics
