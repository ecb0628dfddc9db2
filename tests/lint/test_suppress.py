"""Suppression comments: parsing, SUP01 hygiene, engine filtering."""

import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source
from repro.lint.rules import KNOWN_RULE_IDS
from repro.lint.suppress import parse_suppressions

SIMNET = Path("src/repro/simnet/mod.py")


def _parse(source):
    return parse_suppressions(textwrap.dedent(source), KNOWN_RULE_IDS)


def test_allow_on_the_offending_line():
    allowed, errors = _parse("""\
        x = now()  # replint: allow[DET01] -- test fixture clock
    """)
    assert errors == []
    assert allowed == {1: frozenset({"DET01"})}


def test_comment_only_line_covers_the_next_line():
    allowed, errors = _parse("""\
        # replint: allow[IO01] -- journal is its own durable writer
        handle = path.open("wb")
    """)
    assert errors == []
    assert allowed == {2: frozenset({"IO01"})}


def test_one_comment_may_allow_several_rules():
    allowed, errors = _parse("""\
        y = f()  # replint: allow[DET02, NUM01] -- integer count over a stable set
    """)
    assert errors == []
    assert allowed == {1: frozenset({"DET02", "NUM01"})}


def test_missing_justification_is_sup01():
    allowed, errors = _parse("""\
        x = now()  # replint: allow[DET01]
    """)
    assert allowed == {}
    assert len(errors) == 1 and "justification" in errors[0].message


def test_unknown_rule_is_sup01():
    allowed, errors = _parse("""\
        x = 1  # replint: allow[BOGUS99] -- because
    """)
    assert allowed == {}
    assert len(errors) == 1 and "BOGUS99" in errors[0].message


def test_unknown_verb_is_sup01():
    allowed, errors = _parse("""\
        x = 1  # replint: ignore[DET01] -- because
    """)
    assert allowed == {}
    assert len(errors) == 1 and "ignore" in errors[0].message


def test_empty_rule_list_is_sup01():
    allowed, errors = _parse("""\
        x = 1  # replint: allow[] -- because
    """)
    assert allowed == {}
    assert len(errors) == 1


def test_directives_inside_strings_are_ignored():
    """Docstrings *documenting* the syntax must not parse as live
    suppressions (nor as malformed ones)."""
    allowed, errors = _parse('''\
        """Use ``# replint: allow[RULE] -- justification`` to silence."""
        text = "# replint: allow[NOPE]"
    ''')
    assert allowed == {}
    assert errors == []


def test_engine_filters_suppressed_findings():
    source = textwrap.dedent("""\
        import time

        def stamp():
            return time.time()  # replint: allow[DET01] -- wall time for a log label only
    """)
    assert lint_source(source, SIMNET, Policy()) == []


def test_suppression_matches_any_line_of_a_wrapped_statement():
    source = textwrap.dedent("""\
        import time

        def stamp():
            return time.time(
            )  # replint: allow[DET01] -- wall time for a log label only
    """)
    assert lint_source(source, SIMNET, Policy()) == []


def test_unrelated_rule_in_allow_does_not_silence():
    source = textwrap.dedent("""\
        import time

        def stamp():
            return time.time()  # replint: allow[IO01] -- wrong rule
    """)
    diags = lint_source(source, SIMNET, Policy())
    assert [d.rule for d in diags] == ["DET01"]


def test_sup01_reported_through_the_engine():
    source = "x = 1  # replint: allow[DET01]\n"
    diags = lint_source(source, SIMNET, Policy())
    assert [d.rule for d in diags] == ["SUP01"]
    assert diags[0].line == 1
