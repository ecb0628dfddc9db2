"""Empirical CDFs (Figures 3b, 6, 8b of the paper)."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.analysis import backend


@dataclass(frozen=True)
class ECDF:
    """An empirical cumulative distribution function."""

    xs: tuple[float, ...]  # sorted sample values
    ps: tuple[float, ...]  # cumulative probabilities at each value

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ECDF":
        xs, ps = backend.ecdf_arrays(values)
        return cls(xs=tuple(xs), ps=tuple(ps))

    @classmethod
    def from_sorted(cls, sorted_values: Sequence[float]) -> "ECDF":
        """Build from an already-sorted sample (skips the sort)."""
        return cls(xs=tuple(sorted_values),
                   ps=tuple(backend.ecdf_ps(len(sorted_values))))

    @property
    def n(self) -> int:
        return len(self.xs)

    def evaluate(self, x: float) -> float:
        """P(X <= x)."""
        return bisect.bisect_right(self.xs, x) / len(self.xs)

    def evaluate_many(self, queries: Sequence[float]) -> list[float]:
        """Batched :meth:`evaluate`."""
        return backend.ecdf_evaluate_many(self.xs, queries)

    def fraction_below(self, x: float) -> float:
        """Alias of :meth:`evaluate`, reads naturally in reports."""
        return self.evaluate(x)

    def quantile(self, q: float) -> float:
        """Smallest sample value with CDF >= q (nearest-rank)."""
        return backend.nearest_rank_quantile(self.xs, q)

    def series(self, points: int = 50) -> list[tuple[float, float]]:
        """Downsampled (x, p) pairs for compact textual plots.

        Both endpoints are always included, so the series starts at the
        minimum sample (the true support) and ends at the maximum.
        """
        if self.n <= points:
            return list(zip(self.xs, self.ps))
        if points == 1:
            return [(self.xs[-1], self.ps[-1])]
        step = (self.n - 1) / (points - 1)
        out = []
        for i in range(points):
            idx = round(i * step)
            out.append((self.xs[idx], self.ps[idx]))
        return out
