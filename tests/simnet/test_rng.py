"""Unit tests for deterministic RNG substreams."""

import pytest

from repro.simnet.rng import (
    bounded_lognormal,
    derive_seed,
    left_sum,
    lognormal_factor,
    pareto,
    substream,
    weighted_choice,
)


def test_same_path_same_stream():
    a = substream(7, "tor", "relay", 1)
    b = substream(7, "tor", "relay", 1)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_path_different_stream():
    a = substream(7, "tor", "relay", 1)
    b = substream(7, "tor", "relay", 2)
    assert a.random() != b.random()


def test_different_root_seed_different_stream():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_derive_seed_is_64_bit():
    seed = derive_seed(123, "a", "b")
    assert 0 <= seed < 2 ** 64


def test_lognormal_factor_median_near_one():
    rng = substream(11, "noise")
    samples = sorted(lognormal_factor(rng, 0.3) for _ in range(4001))
    median = samples[len(samples) // 2]
    assert 0.9 < median < 1.1


def test_lognormal_factor_zero_sigma_is_identity():
    rng = substream(11, "noise")
    assert lognormal_factor(rng, 0.0) == 1.0


def test_bounded_lognormal_respects_bounds():
    rng = substream(3, "b")
    for _ in range(500):
        v = bounded_lognormal(rng, 10.0, 1.5, lo=2.0, hi=40.0)
        assert 2.0 <= v <= 40.0


def test_pareto_heavy_tail_min_is_scale():
    rng = substream(5, "p")
    samples = [pareto(rng, 1.5, 100.0) for _ in range(2000)]
    assert min(samples) >= 100.0
    assert max(samples) > 1000.0  # a heavy tail produces large values


def test_weighted_choice_respects_weights():
    rng = substream(9, "w")
    picks = [weighted_choice(rng, ["a", "b"], [0.99, 0.01]) for _ in range(500)]
    assert picks.count("a") > 400


def test_weighted_choice_rejects_nonpositive_total():
    rng = substream(9, "w")
    with pytest.raises(ValueError):
        weighted_choice(rng, ["a"], [0.0])


def test_weighted_choice_leaves_out_excluded_keys():
    rng = substream(9, "w")
    picks = {weighted_choice(rng, ["a", "b", "c"], [5.0, 1.0, 1.0],
                             ["ka", "kb", "kc"], {"ka"})
             for _ in range(200)}
    assert picks == {"b", "c"}


def test_left_sum_adds_left_to_right():
    # Compensated summation (the builtin sum() since Python 3.12) gives
    # 1.0 here; one rounding per addition, in order, loses the 1.0.
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert left_sum([]) == 0.0
