"""File walking, rule dispatch, suppression filtering, reporting.

One run has two layers. Per-file rules see one parsed module at a
time. Whole-program rules see the project call graph
(:mod:`repro.lint.callgraph`) and may attribute a finding to any
module; the engine maps the module back to its file and applies that
file's inline suppressions, so ``# replint: allow[...]`` works
identically for both layers. Every run is a full run; ``--changed``
only narrows the *report* to the files git sees as changed.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.callgraph import CallGraph
from repro.lint.policy import Policy
from repro.lint.registry import FILE_RULES, KNOWN_RULE_IDS, PROJECT_RULES
from repro.lint.rules import SUP01, Finding, ModuleContext, ProjectRule, Rule
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

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotation."""
        def esc(text: str, properties: bool = False) -> str:
            out = (text.replace("%", "%25").replace("\r", "%0D")
                   .replace("\n", "%0A"))
            if properties:
                out = out.replace(":", "%3A").replace(",", "%2C")
            return out
        return (f"::error file={esc(self.path, True)},"
                f"line={self.line},col={self.col},"
                f"title=replint {esc(self.rule, True)}"
                f"::{esc(self.message)}")


@dataclass(frozen=True)
class LintStats:
    """``--stats`` counters for one run."""

    files: int
    callgraph: str          # CallGraphStats.format() line

    def format(self) -> str:
        return f"replint: {self.files} files\n{self.callgraph}"


@dataclass(frozen=True)
class LintResult:
    diagnostics: tuple[Diagnostic, ...]
    stats: LintStats


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


@dataclass
class _FileRecord:
    """Everything the run knows about one linted file."""

    display: str
    module: str
    source: str
    tree: Optional[ast.Module]          # None: syntax error
    allowed: dict[int, frozenset[str]] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _parse(source: str, path: Path, policy: Policy) -> _FileRecord:
    """Parse one file and collect its suppressions (and SUP01s)."""
    display = _display_path(path)
    module = policy.module_name(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        record = _FileRecord(display, module, source, None)
        record.diagnostics.append(Diagnostic(
            display, exc.lineno or 1, exc.offset or 0, "SYNTAX",
            f"cannot parse: {exc.msg}"))
        return record
    allowed, sup_errors = parse_suppressions(source, KNOWN_RULE_IDS)
    record = _FileRecord(display, module, source, tree, allowed)
    record.diagnostics.extend(
        Diagnostic(display, err.line, 0, SUP01, err.message)
        for err in sup_errors)
    return record


def _suppressed(finding: Finding, rule_id: str,
                allowed: dict[int, frozenset[str]]) -> bool:
    span = range(finding.line, max(finding.line, finding.end_line) + 1)
    return any(rule_id in allowed.get(line, ()) for line in span)


def _report(record: _FileRecord, rule_id: str, finding: Finding) -> None:
    if not _suppressed(finding, rule_id, record.allowed):
        record.diagnostics.append(Diagnostic(
            record.display, finding.line, finding.col, rule_id,
            finding.message))


def _check_file(record: _FileRecord, rules: Iterable[Rule]) -> None:
    assert record.tree is not None
    ctx = ModuleContext(module=record.module, tree=record.tree,
                        lines=tuple(record.source.splitlines()))
    for rule in rules:
        if rule.policy.applies_to(record.module):
            for finding in rule.check(ctx):
                _report(record, rule.rule_id, finding)


def lint_source(source: str, path: Path, policy: Policy, *,
                rules: Iterable[Rule] = FILE_RULES) -> list[Diagnostic]:
    """Lint one module's source text against the per-file rules."""
    record = _parse(source, path, policy)
    if record.tree is not None:
        _check_file(record, rules)
    return sorted(record.diagnostics)


def run_lint(paths: Sequence[str | Path], policy: Policy, *,
             file_rules: Iterable[Rule] = FILE_RULES,
             project_rules: Iterable[ProjectRule] = PROJECT_RULES,
             ) -> LintResult:
    """Lint every file under ``paths``, then the whole program."""
    file_rules = tuple(file_rules)
    records: dict[Path, _FileRecord] = {}
    for path in iter_python_files([Path(p) for p in paths]):
        record = _parse(path.read_text(encoding="utf-8"), path, policy)
        records[path] = record
        if record.tree is not None:
            _check_file(record, file_rules)

    graph = CallGraph.build(
        [(r.module, path, r.tree) for path, r in records.items()
         if r.tree is not None])
    by_module = {name: records[info.path]
                 for name, info in graph.modules.items()}
    for rule in project_rules:
        for module, finding in rule.check_project(graph):
            _report(by_module[module], rule.rule_id, finding)

    diagnostics = sorted(d for r in records.values() for d in r.diagnostics)
    stats = LintStats(files=len(records), callgraph=graph.stats().format())
    return LintResult(diagnostics=tuple(diagnostics), stats=stats)


def lint_paths(paths: Sequence[str | Path], policy: Policy, *,
               rules: Iterable[Rule] = FILE_RULES,
               project_rules: Iterable[ProjectRule] = PROJECT_RULES,
               ) -> list[Diagnostic]:
    """Lint every Python file under ``paths``; diagnostics, sorted."""
    result = run_lint(paths, policy, file_rules=rules,
                      project_rules=project_rules)
    return list(result.diagnostics)


def _git_changed_files(root: Path, base: str = "",
                       ) -> Optional[frozenset[Path]]:
    """Python files git sees as modified or untracked under ``root``.

    Without ``base``, "changed" means uncommitted edits against HEAD
    plus untracked files. With ``base`` (a ref like ``origin/main``),
    it means everything that differs from ``git merge-base <base>
    HEAD`` — exactly a PR's files — plus uncommitted and untracked
    work.

    Returns None when git is unavailable, ``root`` is not a checkout,
    or ``base`` does not resolve — the caller reports a usage error
    rather than silently linting nothing.
    """
    import subprocess

    diff_from = "HEAD"
    if base:
        try:
            proc = subprocess.run(
                ["git", "-C", str(root), "merge-base", base, "HEAD"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        diff_from = proc.stdout.strip()

    files: set[Path] = set()
    for command in (
            ["git", "-C", str(root), "diff", "--name-only", diff_from,
             "--"],
            ["git", "-C", str(root), "ls-files", "--others",
             "--exclude-standard"]):
        try:
            proc = subprocess.run(command, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        for line in proc.stdout.splitlines():
            if line.endswith(".py"):
                files.add((root / line).resolve())
    return frozenset(files)


#: SARIF 2.1.0 schema location for ``--format=sarif``.
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def sarif_payload(diagnostics: Sequence[Diagnostic]) -> dict:
    """The run rendered as a SARIF 2.1.0 log (GitHub code scanning).

    Columns are 1-based in SARIF; replint's are 0-based (AST column
    offsets), hence the ``+ 1``.
    """
    from repro.lint.rules import SUP01_SUMMARY

    summaries = {rule.rule_id: rule.summary
                 for rule in (*FILE_RULES, *PROJECT_RULES)}
    summaries[SUP01] = SUP01_SUMMARY
    summaries["SYNTAX"] = "file cannot be parsed"
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "replint",
                "informationUri": "docs/static-analysis.md",
                "rules": [
                    {"id": rule_id,
                     "shortDescription": {"text": summary}}
                    for rule_id, summary in sorted(summaries.items())],
            }},
            "results": [
                {"ruleId": d.rule,
                 "level": "error",
                 "message": {"text": d.message},
                 "locations": [{"physicalLocation": {
                     "artifactLocation": {
                         "uri": Path(d.path).as_posix()},
                     "region": {"startLine": max(d.line, 1),
                                "startColumn": d.col + 1},
                 }}]}
                for d in diagnostics],
        }],
    }


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
    parser.add_argument("--format",
                        choices=("text", "json", "github", "sarif"),
                        default="text",
                        help="diagnostic output format (default: text)")
    parser.add_argument("--stats", action="store_true",
                        help="print file and call-graph statistics")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--changed", nargs="?", const="", default=None,
                        metavar="BASE",
                        help="report only findings in files git "
                             "considers changed (uncommitted edits + "
                             "untracked); with a base ref "
                             "(--changed=origin/main), everything since "
                             "'git merge-base BASE HEAD'. The whole "
                             "program is still analysed, so "
                             "interprocedural verdicts stay correct")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in (*FILE_RULES, *PROJECT_RULES):
            zones = ", ".join(rule.policy.zones)
            scope = ("whole-program"
                     if isinstance(rule, ProjectRule) else "per-file")
            print(f"{rule.rule_id}  {rule.summary}  [{scope}; "
                  f"zones: {zones}]")
        print(f"{SUP01}  {SUP01_SUMMARY}  [per-file; zones: everywhere]")
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

    changed_files: Optional[frozenset[Path]] = None
    if args.changed is not None:
        root = (policy.root if policy.root is not None
                else Path.cwd())
        changed_files = _git_changed_files(root, args.changed)
        if changed_files is None:
            print("replint: --changed requires a git checkout and a "
                  "resolvable base ref (git merge-base/diff/ls-files "
                  "failed)")
            return 2
        if not changed_files:
            if args.format == "sarif":
                print(json.dumps(sarif_payload(()), indent=2))
            return 0

    result = run_lint(paths, policy)
    diagnostics = result.diagnostics
    if changed_files is not None:
        keep = {str(p) for p in changed_files}
        diagnostics = tuple(d for d in diagnostics
                            if str(Path(d.path).resolve()) in keep)
    if args.format == "sarif":
        print(json.dumps(sarif_payload(diagnostics), indent=2))
    elif args.format == "json":
        print(json.dumps({
            "diagnostics": [
                {"path": d.path, "line": d.line, "col": d.col,
                 "rule": d.rule, "message": d.message}
                for d in diagnostics],
            "stats": {"files": result.stats.files,
                      "callgraph": result.stats.callgraph},
        }, indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format_github() if args.format == "github"
                  else diagnostic.format())
        if args.stats:
            print(result.stats.format())
        if diagnostics:
            print(f"replint: {len(diagnostics)} diagnostic"
                  f"{'s' if len(diagnostics) != 1 else ''}")
    return 1 if diagnostics else 0
