"""Property tests: batched reductions == their plain definitions.

Every batched reduction must produce exactly the doubles of its
textbook definition — ``sorted``, ``bisect_right(xs, q) / n``,
``math.fsum(...) / n`` and list-comprehension grouping — over random
samples including ties, n=1/2 and all-equal inputs. Sorting, searching
and rank selection are exact, and every scalar reduction is
fsum-funnelled (exactly rounded), so results cannot depend on the order
elements are visited in.
"""

from __future__ import annotations

import bisect
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import backend
from repro.analysis.boxstats import BoxStats
from repro.analysis.ecdf import ECDF
from repro.analysis.stats import paired_t_test

# Finite floats with deliberately coarse granularity so ties and
# all-equal samples are common; n=1 and n=2 sit at the minimum sizes.
_value = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
              allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, 1e-300, 7.25]),
)
_samples = st.lists(_value, min_size=1, max_size=300)
_pairs = st.lists(st.tuples(_value, _value), min_size=2, max_size=200)


# -- batched operations against plain definitions ---------------------


@given(_samples)
@settings(max_examples=120, deadline=None)
def test_sort_values_bit_equal(values):
    assert backend.sort_values(values) == sorted(values)


@given(_samples)
@settings(max_examples=120, deadline=None)
def test_ecdf_bit_equal(values):
    ecdf = ECDF.from_values(values)
    xs = sorted(values)
    n = len(xs)
    assert list(ecdf.xs) == xs
    assert list(ecdf.ps) == [(i + 1) / n for i in range(n)]
    assert ECDF.from_sorted(xs) == ecdf
    queries = [min(values) - 1.0, min(values), max(values), 0.0] + values[:20]
    assert ecdf.evaluate_many(queries) == \
        [bisect.bisect_right(xs, q) / n for q in queries]
    assert ecdf.evaluate_many(queries) == [ecdf.evaluate(q) for q in queries]


@given(_samples)
@settings(max_examples=120, deadline=None)
def test_boxstats_bit_equal(values):
    box = BoxStats.from_values(values)
    n = len(values)
    assert box.n == n
    assert box.mean == math.fsum(values) / n
    if n % 2:
        assert box.median == statistics.median(values)
    lo_fence = box.q1 - 1.5 * box.iqr
    hi_fence = box.q3 + 1.5 * box.iqr
    assert box.outliers == len([v for v in values
                                if v < lo_fence or v > hi_fence])
    # Order-free: any permutation of the sample gives the same summary.
    assert BoxStats.from_values(values[::-1]) == box
    assert BoxStats.from_values(sorted(values)) == box


@given(_pairs)
@settings(max_examples=120, deadline=None)
def test_paired_t_bit_equal(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    n = len(pairs)
    result = paired_t_test(a, b)
    diffs = [x - y for x, y in pairs]
    mean_diff = math.fsum(diffs) / n
    assert result.n == n and result.df == n - 1
    assert result.mean_a == math.fsum(a) / n
    assert result.mean_b == math.fsum(b) / n
    assert result.mean_diff == mean_diff
    assert result.sd_diff == math.sqrt(
        math.fsum((d - mean_diff) * (d - mean_diff) for d in diffs) / (n - 1))
    # Order-free: reversing the pairs gives the identical test.
    assert paired_t_test(a[::-1], b[::-1]) == result


@given(st.lists(st.tuples(st.integers(min_value=-1, max_value=6), _value),
                min_size=0, max_size=200))
@settings(max_examples=120, deadline=None)
def test_grouping_bit_equal(rows):
    codes = [c for c, _ in rows]
    values = [v for _, v in rows]
    groups = [[v for c, v in rows if c == g] for g in range(7)]
    flat, starts = backend.group_flat(codes, values, 7)
    # Groups in code order, record order preserved within a group.
    assert [flat[starts[g]:starts[g + 1]] for g in range(7)] == groups
    assert flat == [v for group in groups for v in group]
    assert backend.group_counts(codes, 7) == [len(group) for group in groups]


# -- shared scalar kernels --------------------------------------------


@given(_samples)
@settings(max_examples=100, deadline=None)
def test_nearest_rank_quantile_matches_ecdf(values):
    xs = sorted(values)
    for q in (0.1, 0.5, 0.9, 1.0):
        assert backend.nearest_rank_quantile(xs, q) == \
            ECDF.from_values(values).quantile(q)


def test_nearest_rank_p90_does_not_over_index():
    xs = list(range(1, 11))  # n=10: int(0.9 * 10) would report the max
    assert backend.nearest_rank_quantile(xs, 0.9) == 9


def test_quantile_validation():
    with pytest.raises(ValueError):
        backend.nearest_rank_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        backend.nearest_rank_quantile([], 0.5)
    with pytest.raises(ValueError):
        backend.mean([])


def test_mean_sd_edge_cases():
    assert backend.mean_sd([4.0]) == (4.0, 0.0)
    mean, sd = backend.mean_sd([2.0, 4.0, 6.0])
    assert mean == 4.0 and sd == 2.0
    mean, sd = backend.mean_sd([3.0, 3.0, 3.0])
    assert mean == 3.0 and sd == 0.0
