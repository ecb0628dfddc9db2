"""Layer map and the roll-up of a cProfile trace into per-layer metrics.

Layers are this repository's modules. Every runtime file under
``src/repro`` (``repro.lint`` excluded) belongs to exactly one layer;
``test_bench_e2e.py`` enforces that, so a new module must be placed
here before the benchmark passes. The stdlib ``random`` module is the
``simnet.rng`` layer's engine. Other library and generated code (enum
operations, dataclass-generated ``__eq__``) is charged to the layer
that called it, as cProfile's ``builtins=False`` already does for C
calls. What is left, chiefly the benchmark's own shims, is ``other``.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Layer -> files relative to the ``repro`` package directory. An entry
#: ending in ``/`` covers every file below that directory.
LAYER_FILES = {
    "simnet.kernel": ("simnet/kernel.py",),
    "simnet.fairshare": ("simnet/fairshare.py",),
    "simnet.network": ("simnet/network.py", "simnet/flow.py",
                       "simnet/resource.py"),
    "simnet.session": ("simnet/session.py",),
    "simnet.geo": ("simnet/geo.py", "simnet/latency.py"),
    "simnet.rng": ("simnet/rng.py",),
    "simnet.background": ("simnet/background.py",),
    "tor": ("tor/",),
    "pts": ("pts/",),
    "web": ("web/",),
    "measure": ("measure/",),
    "analysis": ("analysis/",),
    "core": ("core/", "units.py", "errors.py", "simnet/perfcounters.py",
             "__init__.py", "__main__.py", "simnet/__init__.py"),
}
OTHER = "other"
LAYERS = (*LAYER_FILES, OTHER)

#: Stands in for a path relative to ``repro`` for the stdlib ``random``.
RANDOM = "<random>"

#: Exact call counts of named boundary functions: metric -> the
#: (file relative to ``repro``, function name) pairs whose counts sum.
CALL_COUNTS = {
    "simnet.geo.great_circle_km.calls": (("simnet/geo.py", "great_circle_km"),),
    "simnet.network.resource_eq.calls": (("simnet/resource.py", "__eq__"),),
    "simnet.session.dispatch.calls": (("simnet/session.py", "_dispatch"),),
    "tor.resample_load.calls": (("tor/relay.py", "resample_load"),),
    "simnet.rng.draws": ((RANDOM, "gauss"), (RANDOM, "gammavariate")),
}

#: How many callers up a library function's self time is followed to
#: find a layer before it is left in ``other``.
CALLER_DEPTH = 4
_HARNESS_DIR = Path(__file__).resolve().parent


def layers_of(relative: str) -> list[str]:
    """Every layer claiming one file path relative to ``repro``."""
    return [layer for layer, entries in LAYER_FILES.items()
            if any(relative == entry
                   or (entry.endswith("/") and relative.startswith(entry))
                   for entry in entries)]


def _locate(filename: str, package_dir: Path) -> tuple[str | None, str]:
    """(layer, path relative to ``repro``) of one profiled code file.

    The layer is None for library and generated code, whose time
    belongs to its callers.
    """
    if filename.startswith("<"):
        return None, ""
    path = Path(filename).resolve()
    if path == Path(random.__file__).resolve():
        return "simnet.rng", RANDOM
    if path.is_relative_to(package_dir):
        relative = path.relative_to(package_dir).as_posix()
        claimed = layers_of(relative)
        return (claimed[0] if len(claimed) == 1 else OTHER), relative
    if path.is_relative_to(_HARNESS_DIR):
        return OTHER, ""
    return None, ""


def rollup(stats: dict, package_dir: Path) -> dict[str, float]:
    """Per-layer self time, the ``other`` share, and boundary call counts.

    ``stats`` is ``pstats.Stats(...).stats``: (file, line, function) ->
    (primitive calls, calls, self time, cumulative time, callers), where
    each caller maps to the same four numbers for calls from it.
    """
    package_dir = package_dir.resolve()
    located: dict[str, tuple[str | None, str]] = {}
    owners_memo: dict[tuple, dict[str, float]] = {}

    def locate(key: tuple) -> tuple[str | None, str]:
        if key[0] not in located:
            located[key[0]] = _locate(key[0], package_dir)
        return located[key[0]]

    def owners(key: tuple, depth: int) -> dict[str, float]:
        """Layer -> share of ``key``'s self time."""
        layer = locate(key)[0]
        if layer is not None:
            return {layer: 1.0}
        callers = stats[key][4] if key in stats else {}
        total = sum(sub[2] for sub in callers.values())
        if depth == 0 or not total:
            return {OTHER: 1.0}
        if (key, depth) not in owners_memo:
            shares: dict[str, float] = {}
            for caller, sub in callers.items():
                for layer, share in owners(caller, depth - 1).items():
                    shares[layer] = shares.get(layer, 0.0) + share * sub[2] / total
            owners_memo[key, depth] = shares
        return owners_memo[key, depth]

    wanted = {pair: metric for metric, pairs in CALL_COUNTS.items()
              for pair in pairs}
    self_s = dict.fromkeys(LAYERS, 0.0)
    out = dict.fromkeys(CALL_COUNTS, 0.0)
    for key, (_, calls, self_time, _, _) in stats.items():
        for layer, share in owners(key, CALLER_DEPTH).items():
            self_s[layer] += self_time * share
        metric = wanted.get((locate(key)[1], key[2]))
        if metric is not None:
            out[metric] += calls
    total = sum(self_s.values())
    out.update({f"{layer}.self_s": seconds for layer, seconds in self_s.items()})
    out["other.share"] = self_s[OTHER] / total if total else 0.0
    return out
