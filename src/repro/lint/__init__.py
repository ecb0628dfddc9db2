"""replint — AST-based determinism & crash-safety invariant checker.

Every guarantee this reproduction makes — bit-identical engine parity,
bit-identical parallel merges, resume-after-SIGKILL, exactly-rounded
streaming reductions — rests on coding disciplines (seeded RNG only,
ordered iteration in merge paths, ``fsum``/``ExactSum`` accumulation,
tmp+fsync+``os.replace`` writes). This package machine-checks those
disciplines on every change::

    python -m repro.lint src tests benchmarks

Per-file rules (see :mod:`repro.lint.rules` and
``docs/static-analysis.md``): DET01 ambient clock/randomness, DET02
unordered set iteration, NUM01 bare float accumulation, IO01 raw
writable ``open``, MP01 fork-unsafe module state, EXC01 swallowed
``KeyboardInterrupt`` in supervisor zones, UNIT03 bare conversion
literals on unit-suffixed names, SUP01 malformed suppressions.
Whole-program rules, built on the project call graph
(:mod:`repro.lint.callgraph`): DET03 transitive ambient-source reach
and DET04 unordered iteration escaping through return values
(:mod:`repro.lint.taint`). Each rule's zones are fixed on the rule;
``[tool.replint]`` in ``pyproject.toml`` names only the default paths
(:mod:`repro.lint.policy`). Per-line escapes are
``# replint: allow[RULE] -- justification``
(:mod:`repro.lint.suppress`). Every run is a full run; ``--changed``
only narrows the report, and ``--format`` picks text, json, GitHub
annotations or SARIF.

Process lifecycle, durability and pickle-safety are checked at run
time instead, by tier-1 tests that count open fds and live children
around every supervisor fault kind, record the fsync/``os.replace``
order of both shard publishers, and run a faulted campaign under the
``spawn`` start method.

The checker is stdlib-only (``ast`` + ``tomllib``) so the CI lint gate
needs no third-party installs.
"""

from repro.lint.callgraph import CallGraph, CallGraphStats
from repro.lint.engine import (
    Diagnostic,
    LintResult,
    LintStats,
    iter_python_files,
    lint_paths,
    lint_source,
    run,
    run_lint,
)
from repro.lint.policy import Policy, RulePolicy, find_pyproject, load_policy
from repro.lint.registry import FILE_RULES, KNOWN_RULE_IDS, PROJECT_RULES
from repro.lint.rules import RULES, ProjectRule, Rule

__all__ = [
    "CallGraph", "CallGraphStats", "Diagnostic", "FILE_RULES",
    "KNOWN_RULE_IDS", "LintResult", "LintStats", "PROJECT_RULES",
    "Policy", "ProjectRule", "RULES", "Rule", "RulePolicy",
    "find_pyproject", "iter_python_files", "lint_paths", "lint_source",
    "load_policy", "run", "run_lint",
]
