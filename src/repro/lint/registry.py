"""The complete rule registry: per-file rules + whole-program rules.

:mod:`repro.lint.rules` holds the per-file rules and the base classes;
the interprocedural rules live in :mod:`repro.lint.taint`, which
imports from ``rules`` — so the combined registry has to live above
both to avoid an import cycle. The engine and CLI import from here.
"""

from __future__ import annotations

from repro.lint.rules import RULES, SUP01, ProjectRule, Rule
from repro.lint.taint import EscapedOrderRule, TransitiveAmbientRule

#: Per-file rules, in reporting order.
FILE_RULES: tuple[Rule, ...] = RULES

#: Whole-program rules — these see the call graph.
PROJECT_RULES: tuple[ProjectRule, ...] = (
    TransitiveAmbientRule(),
    EscapedOrderRule(),
)

#: Every rule id an ``allow[...]`` comment may name.
KNOWN_RULE_IDS: frozenset[str] = frozenset(
    {rule.rule_id for rule in FILE_RULES}
    | {rule.rule_id for rule in PROJECT_RULES}
    | {SUP01})
