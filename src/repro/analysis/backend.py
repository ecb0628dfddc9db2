"""Batched statistical reductions over plain python floats.

The analysis layer's hot loops — sorting samples for ECDFs and box
plots, grouping tens of thousands of records into (pt, target) cells,
and paired-difference statistics for the appendix t-test tables — all
route through this module. It depends on the standard library only.

Results do not depend on the order elements are visited in:

* sorting, searching (:func:`bisect.bisect_right`) and rank selection
  are exact operations;
* every reduction to a *scalar* (mean, standard deviation, paired-diff
  moments) funnels through :func:`math.fsum` or :class:`ExactSum`,
  which are exactly rounded and therefore independent of summation
  order and chunking. This is what lets the chunked column store fold
  per-shard partial aggregates and still match the in-memory path
  bitwise.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence


# ---------------------------------------------------------------------------
# scalar kernels
# ---------------------------------------------------------------------------


def mean(values: Sequence[float]) -> float:
    """Exactly-rounded arithmetic mean (``fsum``-based, order-free)."""
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    return math.fsum(values) / n


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """(mean, sample standard deviation); sd is 0.0 for n == 1.

    Two-pass ``fsum`` reduction: both passes are exactly rounded, so
    the result does not depend on element order.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    m = math.fsum(values) / n
    if n == 1:
        return m, 0.0
    ss = math.fsum((x - m) * (x - m) for x in values)
    return m, math.sqrt(ss / (n - 1))


class ExactSum:
    """A streaming sum that is exact regardless of chunking or order.

    Maintains the running sum as Shewchuk non-overlapping partials (the
    same representation :func:`math.fsum` uses internally), so feeding
    the same multiset of finite values in *any* order, split across
    *any* sequence of :meth:`add` calls, produces the exact real sum —
    and :attr:`value` rounds it once, bit-identical to a single
    ``math.fsum`` over all the values. This is what lets the chunked
    column store fold per-shard partial aggregates and still match the
    in-memory reductions bitwise (a per-shard ``fsum`` would round once
    per shard and drift).

    Values must be finite; overflow of the exact sum past the double
    range is undefined, as with ``fsum``.
    """

    __slots__ = ("count", "_partials")

    def __init__(self) -> None:
        self.count = 0
        self._partials: list[float] = []

    def add(self, values: Sequence[float]) -> None:
        """Fold a batch of values into the exact running sum."""
        partials = self._partials
        n = 0
        for x in values:
            n += 1
            x = float(x)
            i = 0
            for y in partials:
                if abs(x) < abs(y):
                    x, y = y, x
                hi = x + y
                lo = y - (hi - x)
                if lo:
                    partials[i] = lo
                    i += 1
                x = hi
            partials[i:] = [x]
        self.count += n

    @property
    def value(self) -> float:
        """The correctly-rounded sum of every value added so far."""
        return math.fsum(self._partials)

    def mean(self) -> float:
        """Exactly-rounded mean; identical to ``fsum(all)/count``."""
        if self.count == 0:
            raise ValueError("empty sample")
        return self.value / self.count


def nearest_rank_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Smallest sample value with CDF >= q (nearest-rank definition).

    The quantile definition behind :meth:`ECDF.quantile` —
    ``int(q * n)`` over-indexes (n=10, q=0.9 would report the maximum).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    index = max(0, math.ceil(q * n) - 1)
    return sorted_values[index]


def linear_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (matplotlib's box-plot default)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


# ---------------------------------------------------------------------------
# batched operations
# ---------------------------------------------------------------------------


def sort_values(values: Sequence[float]) -> list[float]:
    """Ascending sort, returned as a plain list of python floats."""
    return sorted(float(v) for v in values)


def ecdf_arrays(values: Sequence[float],
                ) -> tuple[list[float], list[float]]:
    """(sorted xs, cumulative probabilities (i+1)/n) for an ECDF."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot build an ECDF from an empty sample")
    xs = sorted(float(v) for v in values)
    return xs, [(i + 1) / n for i in range(n)]


def ecdf_ps(n: int) -> list[float]:
    """Cumulative probabilities (i+1)/n for an n-sample ECDF."""
    if n == 0:
        raise ValueError("cannot build an ECDF from an empty sample")
    return [(i + 1) / n for i in range(n)]


def ecdf_evaluate_many(sorted_values: Sequence[float],
                       queries: Sequence[float]) -> list[float]:
    """Batched P(X <= x) over an already-sorted sample."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty sample")
    return [bisect.bisect_right(sorted_values, x) / n for x in queries]


def paired_diff_stats(a: Sequence[float], b: Sequence[float],
                      ) -> tuple[float, float, float, float]:
    """(mean_a, mean_b, mean_diff, sd_diff) of aligned samples.

    ``mean_diff`` is mean(a - b); ``sd_diff`` is the sample standard
    deviation of the per-pair differences; the moments are
    ``fsum``-reduced, so results do not depend on element order.
    """
    n = len(a)
    if n != len(b):
        raise ValueError("paired samples must have equal length")
    if n == 0:
        raise ValueError("empty sample")
    mean_a = math.fsum(a) / n
    mean_b = math.fsum(b) / n
    mean_diff, sd_diff = mean_sd([float(x) - float(y)
                                  for x, y in zip(a, b)])
    return mean_a, mean_b, mean_diff, sd_diff


# ---------------------------------------------------------------------------
# grouped (columnar) operations
# ---------------------------------------------------------------------------
#
# All take a ``codes`` column assigning each row to a group in
# [0, n_groups); rows with a negative code are excluded (method-filter
# misses and None-valued metrics).


def group_flat(codes, values, n_groups: int,
               ) -> tuple[list[float], list[int]]:
    """(flat values grouped contiguously, group start offsets).

    The flat list holds every included row's value, ordered by group
    code and, within a group, by record order. ``starts`` has
    ``n_groups + 1`` entries; group g occupies ``flat[starts[g]:
    starts[g + 1]]`` (empty groups get zero-length slices).
    """
    buckets: list[list[float]] = [[] for _ in range(n_groups)]
    for code, value in zip(codes, values):
        if code >= 0:
            buckets[code].append(float(value))
    flat: list[float] = []
    starts = [0]
    for bucket in buckets:
        flat.extend(bucket)
        starts.append(len(flat))
    return flat, starts


def group_counts(codes, n_groups: int) -> list[int]:
    """Per-group row counts (negative codes excluded)."""
    out = [0] * n_groups
    for code in codes:
        if code >= 0:
            out[code] += 1
    return out
