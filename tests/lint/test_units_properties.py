"""Property tests for the dimension algebra and suffix parser.

The suffix table in :mod:`repro.lint.rules` decides which names UNIT03
treats as dimensioned, and the algebra written down next to it states
what each suffix means under arithmetic. Hypothesis checks the laws
over the whole lattice instead of the handful of concrete cases in
``test_units.py``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.lint.rules import (
    _SUFFIXES,
    ALL_DIMS,
    S_PER_MS,
    SCALAR,
    TIME_S,
    UNKNOWN,
    add_sub,
    div,
    join,
    mul,
    parse_suffix,
    suffix_dim,
)

dims = st.sampled_from(ALL_DIMS)
physical_dims = st.sampled_from([d for d in ALL_DIMS if d.physical])


# -- lattice laws -------------------------------------------------------


@given(dims, dims)
def test_join_is_commutative(a, b):
    assert join(a, b) == join(b, a)


@given(dims)
def test_join_is_idempotent(a):
    assert join(a, a) == a


@given(dims, dims, dims)
def test_join_is_associative(a, b, c):
    assert join(join(a, b), c) == join(a, join(b, c))


@given(dims)
def test_unknown_absorbs(a):
    assert join(a, UNKNOWN) == UNKNOWN
    assert mul(a, UNKNOWN) == UNKNOWN
    assert div(a, UNKNOWN) == UNKNOWN
    assert div(UNKNOWN, a) == UNKNOWN


# -- composition --------------------------------------------------------


@given(dims, dims)
def test_mul_is_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@given(dims.filter(lambda d: d != S_PER_MS))
def test_scalar_is_the_multiplicative_identity(a):
    # Excluding the conversion column on purpose: ``5 * MS`` is five
    # milliseconds expressed in seconds, so scalar × s/ms → time[s].
    assert mul(a, SCALAR) == a
    assert div(a, SCALAR) == a


def test_scalar_times_the_ms_constant_is_seconds():
    assert mul(SCALAR, S_PER_MS) == TIME_S


@given(physical_dims, dims)
def test_division_round_trips_through_multiplication(a, b):
    """If ``a / b`` has a known dimension, multiplying back by ``b``
    recovers ``a`` — the law that makes ``bytes ÷ s → bytes/s`` and
    ``bytes ÷ (bytes/s) → s`` mutually consistent, including the
    ``repro.units.MS`` conversion column (``s ÷ (s/ms) → ms`` and
    ``ms × (s/ms) → s``)."""
    quotient = div(a, b)
    if quotient != UNKNOWN:
        assert mul(quotient, b) == a


@given(dims, dims)
def test_add_sub_is_commutative(a, b):
    assert add_sub(a, b) == add_sub(b, a)


@given(physical_dims, physical_dims)
def test_add_sub_conflicts_exactly_on_distinct_physical_dims(a, b):
    result, conflict = add_sub(a, b)
    assert conflict == (a != b)
    assert result == (a if a == b else UNKNOWN)


@given(dims, dims)
def test_add_sub_never_invents_a_dimension(a, b):
    result, _ = add_sub(a, b)
    assert result in (a, b, UNKNOWN)


# -- suffix parser ------------------------------------------------------

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
