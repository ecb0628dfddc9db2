"""Property tests for the suffix parser.

The suffix table in :mod:`repro.lint.rules` decides which names UNIT03
treats as dimensioned. Hypothesis checks the parser over generated
identifiers instead of the handful of concrete cases in
``test_units.py``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.lint.rules import _SUFFIXES, parse_suffix, suffix_dim

_WORDS = st.sampled_from([
    "elapsed", "total", "timeout", "download", "ttfb", "queue",
    "budget", "n", "x", "rate", "goodput", "retry",
])
_PREFIXES = st.lists(_WORDS, min_size=1, max_size=3)


@given(_PREFIXES, st.sampled_from(sorted(_SUFFIXES)))
def test_suffixed_identifiers_parse_to_the_table_dimension(parts, suffix):
    name = "_".join(parts + [suffix])
    assert parse_suffix(name) == (_SUFFIXES[suffix], suffix)


@given(_PREFIXES, st.sampled_from(sorted(_SUFFIXES)))
def test_per_and_from_guards_block_the_suffix(parts, suffix):
    # hazard_per_s is an intensity; int.from_bytes constructs from bytes.
    assert suffix_dim("_".join(parts + ["per", suffix])) is None
    assert suffix_dim("_".join(parts + ["from", suffix])) is None


@given(_PREFIXES)
def test_unsuffixed_identifiers_stay_unknown(parts):
    name = "_".join(parts)
    hit = parse_suffix(name)
    if hit is not None:
        # Only a genuine table suffix may match (e.g. trailing "n" is
        # not in the table; trailing "rate" is not either).
        assert parts[-1] in _SUFFIXES


@given(st.sampled_from(sorted(_SUFFIXES)))
def test_a_bare_suffix_is_not_a_suffixed_name(suffix):
    assert parse_suffix(suffix) is None


@given(_PREFIXES, st.sampled_from(sorted(_SUFFIXES)))
def test_parsing_is_case_insensitive(parts, suffix):
    name = "_".join(parts + [suffix]).upper()
    assert parse_suffix(name) == (_SUFFIXES[suffix], suffix)
