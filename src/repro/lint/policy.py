"""Zone policy: which rules apply to which modules.

Every replint rule guards an invariant that only holds in part of the
tree — wall-clock calls are fine in the supervisor but poison inside
the simulator; raw ``open(..., "w")`` is the *implementation* of the
atomic write helpers but a hazard everywhere else in the measure
layer. A *zone* is a dotted module prefix (``repro.simnet``); a rule
fires only for modules inside one of its zones and outside all of its
exempt prefixes.

Zones are constants on the rules themselves (see
:mod:`repro.lint.rules`) — the one place they are written down.
``pyproject.toml`` holds only the run settings::

    [tool.replint]
    paths = ["src", "tests", "benchmarks"]

A per-rule ``[tool.replint.rules.<ID>]`` override table is rejected
rather than read, so a stale or misspelled override fails the run
instead of silently switching a rule off.

Module names are derived from file paths: anything under a ``src``
directory maps to the dotted path after it (``src/repro/simnet/x.py``
→ ``repro.simnet.x``), which also makes fixture trees in temporary
directories zone-addressable; other files fall back to their dotted
path relative to the configuration root (``tests.measure.test_io``).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence


@dataclass(frozen=True)
class RulePolicy:
    """Where one rule applies: inside ``zones``, outside ``exempt``."""

    zones: tuple[str, ...]
    exempt: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not _in_prefixes(module, self.zones):
            return False
        return not _in_prefixes(module, self.exempt)


def _in_prefixes(module: str, prefixes: Sequence[str]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@dataclass(frozen=True)
class Policy:
    """The run settings from ``[tool.replint]``."""

    #: Default CLI paths when none are given.
    paths: tuple[str, ...] = ("src",)
    #: Directory the policy was loaded from (module-name fallback root).
    root: Optional[Path] = None

    def module_name(self, path: Path) -> str:
        """Dotted module name used for zone matching (see module doc)."""
        resolved = path.resolve()
        parts = resolved.with_suffix("").parts
        if "src" in parts:
            cut = len(parts) - 1 - parts[::-1].index("src")
            tail = parts[cut + 1:]
        else:
            tail = _relative_parts(resolved.with_suffix(""), self.root)
        if tail and tail[-1] == "__init__":
            tail = tail[:-1]
        return ".".join(tail) if tail else resolved.stem


def _relative_parts(path: Path, root: Optional[Path]) -> tuple[str, ...]:
    for base in (root, Path.cwd()):
        if base is None:
            continue
        try:
            return path.relative_to(base.resolve()).parts
        except ValueError:
            continue
    return (path.name,)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for directory in (probe, *probe.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_policy(config: Optional[Path] = None, *,
                start: Optional[Path] = None) -> Policy:
    """Build the run policy from ``pyproject.toml`` (or defaults).

    ``config`` names the file explicitly; otherwise the nearest
    ``pyproject.toml`` above ``start`` (default: the working
    directory) is used. A missing file or a file without a
    ``[tool.replint]`` table yields the defaults. Raises ValueError on
    a ``[tool.replint.rules]`` table: zones live on the rules.
    """
    if config is None:
        config = find_pyproject(start if start is not None else Path.cwd())
    if config is None:
        return Policy()
    with open(config, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("replint", {})
    if "rules" in table:
        raise ValueError(
            f"{config}: [tool.replint.rules] tables are not supported — "
            "rule zones are fixed on the rules (see "
            "docs/static-analysis.md); delete them")
    return Policy(paths=tuple(table.get("paths", ("src",))),
                  root=config.parent)
