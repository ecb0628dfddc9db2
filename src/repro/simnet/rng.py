"""Deterministic hierarchical random-number streams.

Every stochastic component of the simulator draws from its own named
substream derived from a single root seed. Two runs with the same root
seed are identical; changing an unrelated component's draws cannot
perturb another component (no shared global stream).

Example:
    >>> a = substream(42, "tor", "relay", 3)
    >>> b = substream(42, "tor", "relay", 3)
    >>> a.random() == b.random()
    True
    >>> c = substream(42, "tor", "relay", 4)
    >>> a.random() == c.random()
    False
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import reduce
from itertools import compress
from operator import add
from typing import Collection, Iterable, Sequence


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from a root seed and a name path."""
    material = repr((int(root_seed),) + tuple(str(n) for n in names)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def substream(root_seed: int, *names: object) -> random.Random:
    """Return an independent ``random.Random`` for the given name path."""
    return random.Random(derive_seed(root_seed, *names))


def lognormal_factor(rng: random.Random, sigma: float) -> float:
    """A multiplicative noise factor with median 1.0.

    Used throughout to model run-to-run variation in latency and
    throughput (the paper's measurements exhibit heavy right tails, which
    a lognormal reproduces well).
    """
    if sigma <= 0:
        return 1.0
    return math.exp(rng.gauss(0.0, sigma))


def bounded_lognormal(rng: random.Random, median: float, sigma: float,
                      lo: float = 0.0, hi: float = math.inf) -> float:
    """A lognormal sample with the given median, clamped into [lo, hi]."""
    value = median * lognormal_factor(rng, sigma)
    return min(hi, max(lo, value))


def pareto(rng: random.Random, shape: float, scale: float) -> float:
    """Classic Pareto sample (heavy tail; used for flow sizes)."""
    u = 1.0 - rng.random()
    return scale / (u ** (1.0 / shape))


def left_sum(values: Iterable[float]) -> float:
    """Add floats left to right from 0.0, the same on every Python.

    Since Python 3.12 the builtin ``sum()`` compensates float rounding
    (Neumaier), so the same floats can sum to a different last bit on
    3.11 and 3.12, and a seeded output would depend on the interpreter.
    This rounds once per addition, in order, as ``sum()`` did before.
    """
    return reduce(add, values, 0.0)


def weighted_choice(rng: random.Random, items: Sequence, weights: Sequence[float],
                    keys: Sequence = (), exclude: Collection = frozenset()):
    """Choose one item with probability proportional to its weight.

    With ``exclude``, the items whose key (``keys`` names each item) is
    in it are left out of the draw, exactly as if they were not in the
    lists. The kept weights are summed left to right, and one
    ``rng.random()`` scaled by the sum is scanned against their running
    sum in the same order.
    """
    if exclude:
        kept = [key not in exclude for key in keys]
        items = list(compress(items, kept))
        weights = list(compress(weights, kept))
    total = left_sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    x = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if x < acc:
            return item
    return items[-1]
