"""File walking, rule dispatch, suppression filtering, reporting.

Every rule sees one parsed module at a time, and a finding is dropped
when that file's inline ``# replint: allow[...]`` covers its line.
Every run is a full run.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.policy import Policy
from repro.lint.rules import (
    FILE_RULES,
    KNOWN_RULE_IDS,
    SUP01,
    Finding,
    ModuleContext,
    Rule,
)
from repro.lint.suppress import parse_suppressions

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis",
                        ".mypy_cache", ".pytest_cache", "node_modules"})


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One reported violation, ``file:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}"


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given paths, sorted, deduplicated."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen.setdefault(path.resolve(), None)
        elif path.is_dir():
            for found in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.isdisjoint(found.parts):
                    continue
                seen.setdefault(found.resolve(), None)
    yield from sorted(seen)


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _suppressed(finding: Finding, rule_id: str,
                allowed: dict[int, frozenset[str]]) -> bool:
    span = range(finding.line, max(finding.line, finding.end_line) + 1)
    return any(rule_id in allowed.get(line, ()) for line in span)


def lint_source(source: str, path: Path, policy: Policy, *,
                rules: Iterable[Rule] = FILE_RULES) -> list[Diagnostic]:
    """Lint one module's source text; diagnostics, sorted."""
    display = _display_path(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Diagnostic(display, exc.lineno or 1, exc.offset or 0,
                           "SYNTAX", f"cannot parse: {exc.msg}")]
    allowed, sup_errors = parse_suppressions(source, KNOWN_RULE_IDS)
    diagnostics = [Diagnostic(display, err.line, 0, SUP01, err.message)
                   for err in sup_errors]
    module = policy.module_name(path)
    ctx = ModuleContext(module=module, tree=tree,
                        lines=tuple(source.splitlines()))
    for rule in rules:
        if rule.policy.applies_to(module):
            diagnostics.extend(
                Diagnostic(display, finding.line, finding.col,
                           rule.rule_id, finding.message)
                for finding in rule.check(ctx)
                if not _suppressed(finding, rule.rule_id, allowed))
    return sorted(diagnostics)


def lint_paths(paths: Sequence[str | Path], policy: Policy, *,
               rules: Iterable[Rule] = FILE_RULES) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; diagnostics, sorted."""
    rules = tuple(rules)
    diagnostics: list[Diagnostic] = []
    for path in iter_python_files([Path(p) for p in paths]):
        diagnostics.extend(lint_source(path.read_text(encoding="utf-8"),
                                       path, policy, rules=rules))
    return sorted(diagnostics)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0 — clean; 1 — unsuppressed diagnostics; 2 — usage/config error.
    """
    import argparse

    from repro.lint.policy import load_policy
    from repro.lint.rules import SUP01_SUMMARY

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="replint: AST-based determinism & crash-safety "
                    "invariant checker")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check (default: "
                             "the [tool.replint] paths, else 'src')")
    parser.add_argument("--config", type=Path, default=None,
                        help="pyproject.toml to read [tool.replint] from "
                             "(default: nearest above the first path)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="diagnostic output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in FILE_RULES:
            zones = ", ".join(rule.policy.zones)
            print(f"{rule.rule_id}  {rule.summary}  [zones: {zones}]")
        print(f"{SUP01}  {SUP01_SUMMARY}  [zones: everywhere]")
        return 0

    start = Path(args.paths[0]) if args.paths else Path.cwd()
    try:
        policy = load_policy(args.config, start=start)
    except (OSError, ValueError) as exc:
        print(f"replint: cannot load policy: {exc}")
        return 2
    paths = [Path(p) for p in args.paths] or \
        [Path(p) for p in policy.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print("replint: no such path: "
              + ", ".join(str(p) for p in missing))
        return 2

    diagnostics = lint_paths(paths, policy)
    if args.format == "json":
        print(json.dumps({
            "diagnostics": [
                {"path": d.path, "line": d.line, "col": d.col,
                 "rule": d.rule, "message": d.message}
                for d in diagnostics],
        }, indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        if diagnostics:
            print(f"replint: {len(diagnostics)} diagnostic"
                  f"{'s' if len(diagnostics) != 1 else ''}")
    return 1 if diagnostics else 0
