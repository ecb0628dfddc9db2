"""UNIT03 and the dimension algebra behind its suffix table.

UNIT03 is a per-file check: a conversion literal (``1000``, ``1e3``,
``8``, ``125_000``, ...) multiplying or dividing a name, attribute or
constant subscript key whose suffix declares a physical dimension.
Cases are pinned at exact ``file:line:col``. The algebra's laws are
property-tested in ``test_units_properties.py``; this file pins
concrete cases.
"""

import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source
from repro.lint.rules import (
    BITS,
    BYTES,
    BYTES_PER_S,
    COUNT,
    S_PER_MS,
    SCALAR,
    TIME_MS,
    TIME_S,
    UNKNOWN,
    add_sub,
    div,
    join,
    mul,
    parse_suffix,
)

ANALYSIS = Path("src/repro/analysis/mod.py")
SIMNET = Path("src/repro/simnet/mod.py")


def diags(source, path=ANALYSIS):
    return lint_source(textwrap.dedent(source), Path(path), Policy())


def hits(source, path=ANALYSIS):
    return [(d.rule, d.line) for d in diags(source, path)]


def formatted(source, path=ANALYSIS):
    return [d.format() for d in diags(source, path)]


# -- dimension algebra (concrete cases; laws live in the property file) --


def test_join_is_flat():
    assert join(TIME_S, TIME_S) == TIME_S
    assert join(TIME_S, TIME_MS) == UNKNOWN
    assert join(BYTES, BITS) == UNKNOWN


def test_mul_composition():
    assert mul(BYTES_PER_S, TIME_S) == BYTES
    assert mul(TIME_S, BYTES_PER_S) == BYTES
    assert mul(SCALAR, TIME_S) == TIME_S
    assert mul(COUNT, BYTES) == BYTES
    assert mul(TIME_S, TIME_S) == UNKNOWN
    # repro.units.MS: 5 * MS is 5 ms in seconds; x_ms * MS converts.
    assert mul(SCALAR, S_PER_MS) == TIME_S
    assert mul(TIME_MS, S_PER_MS) == TIME_S
    assert mul(TIME_S, S_PER_MS) == UNKNOWN


def test_div_composition():
    assert div(BYTES, TIME_S) == BYTES_PER_S
    assert div(BYTES, BYTES_PER_S) == TIME_S
    assert div(BYTES, BYTES) == SCALAR
    assert div(BYTES, COUNT) == BYTES
    assert div(COUNT, COUNT) == SCALAR
    assert div(TIME_S, S_PER_MS) == TIME_MS
    assert div(TIME_S, BYTES) == UNKNOWN


def test_add_sub_conflicts_only_between_physical_dims():
    assert add_sub(TIME_S, TIME_MS) == (UNKNOWN, True)
    assert add_sub(BYTES, BITS) == (UNKNOWN, True)
    assert add_sub(TIME_S, TIME_S) == (TIME_S, False)
    # Scalar/count offsets are fine (x_s + 0.5, n_bytes + 1).
    assert add_sub(TIME_S, SCALAR) == (TIME_S, False)
    assert add_sub(COUNT, BYTES) == (BYTES, False)
    assert add_sub(UNKNOWN, TIME_S) == (UNKNOWN, False)


def test_parse_suffix_table():
    assert parse_suffix("elapsed_s") == (TIME_S, "s")
    assert parse_suffix("timeout_ms") == (TIME_MS, "ms")
    assert parse_suffix("total_bytes") == (BYTES, "bytes")
    assert parse_suffix("payload_bits") == (BITS, "bits")
    assert parse_suffix("rate_bps") == (BYTES_PER_S, "bps")
    assert parse_suffix("retry_count") == (COUNT, "count")
    assert parse_suffix("TIMEOUT_MS") == (TIME_MS, "ms")


def test_parse_suffix_guards():
    assert parse_suffix("elapsed") is None
    assert parse_suffix("s") is None  # bare suffix is not a suffix
    assert parse_suffix("hazard_per_s") is None  # intensity, not time
    assert parse_suffix("from_bytes") is None  # constructor idiom
    assert parse_suffix("x_") is None
    assert parse_suffix("business") is None  # no underscore boundary


# -- UNIT03: bare magic-number conversions ------------------------------


def test_unit03_seconds_times_1000():
    assert formatted("""\
        def to_ms(duration_s):
            return duration_s * 1000.0
    """) == [
        "src/repro/analysis/mod.py:2:11: UNIT03 bare conversion "
        "'* 1000.0' applied to time[s] ('duration_s') — use "
        "repro.units.seconds_to_ms"]


def test_unit03_literal_on_the_left_and_ms_to_seconds():
    assert formatted("""\
        def to_s(elapsed_ms):
            return 1e-3 * elapsed_ms

        def also_to_s(elapsed_ms):
            return elapsed_ms / 1e3
    """, SIMNET) == [
        "src/repro/simnet/mod.py:2:11: UNIT03 bare conversion "
        "'* 0.001' applied to time[ms] ('elapsed_ms') — use "
        "repro.units.ms_to_seconds",
        "src/repro/simnet/mod.py:5:11: UNIT03 bare conversion "
        "'/ 1000.0' applied to time[ms] ('elapsed_ms') — use "
        "repro.units.ms_to_seconds"]


def test_unit03_bits_divided_by_8():
    assert formatted("""\
        def payload(n_bits):
            return n_bits / 8
    """, "src/repro/tor/cell.py") == [
        "src/repro/tor/cell.py:2:11: UNIT03 bare conversion '/ 8' "
        "applied to data[bits] ('n_bits') — use repro.units.bits"]


def test_unit03_rate_prefix_hint():
    assert formatted("""\
        def widen(rate_bps):
            return rate_bps * 125000
    """, "src/repro/simnet/caps.py") == [
        "src/repro/simnet/caps.py:2:11: UNIT03 bare conversion "
        "'* 125000' applied to rate[bytes/s] ('rate_bps') — use "
        "repro.units.kbit/mbit/gbit"]


def test_unit03_attributes_and_constant_keys():
    assert formatted("""\
        def widen(link, row):
            a = link.rate_bps * 125_000
            b = row["total_bytes"] // 1_000_000
            return a, b
    """, "src/repro/simnet/caps.py") == [
        "src/repro/simnet/caps.py:2:8: UNIT03 bare conversion "
        "'* 125000' applied to rate[bytes/s] ('rate_bps') — use "
        "repro.units.kbit/mbit/gbit",
        "src/repro/simnet/caps.py:3:8: UNIT03 bare conversion "
        "'/ 1000000' applied to data[bytes] ('total_bytes') — use "
        "repro.units.MB/GB or mbytes"]


def test_unit03_fires_in_benchmarks(tmp_path):
    # Module level counts too: there is no enclosing function.
    source = "WALL_S = 2.0\nWALL_MS = WALL_S * 1000\n"
    policy = Policy(root=tmp_path)
    found = lint_source(source, tmp_path / "benchmarks" / "bench_fmt.py",
                        policy)
    assert [(d.rule, d.line) for d in found] == [("UNIT03", 2)]


def test_unit03_repro_units_is_exempt():
    # repro.units is no UNIT03 zone: it implements the conversions.
    assert hits("""\
        def seconds_to_ms(t_s):
            return t_s * 1000.0
    """, "src/repro/units.py") == []


def test_unit03_dimensionless_operands_are_clean():
    assert hits("""\
        def permille(fraction, seed_count, hazard_per_s, n):
            a = fraction * 1000.0
            b = seed_count * 1000
            c = hazard_per_s * 1000
            d = n * 8
            return a, b, c, d
    """) == []


def test_unit03_literal_divided_by_a_name_is_not_a_conversion():
    assert hits("""\
        def rate(total_s):
            return 1000 / total_s
    """) == []


def test_unit03_non_conversion_factors_are_clean():
    assert hits("""\
        def half(duration_s, size_bytes):
            return duration_s * 0.5, size_bytes * 3
    """) == []
