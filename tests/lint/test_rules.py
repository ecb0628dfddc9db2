"""Per-file rule fixtures: true positives and false-positive guards.

Each case is a minimal module checked under a zone-addressed fake path
(``src/repro/...`` makes the module name resolve into the rule's zone);
assertions pin the rule id and the exact line, because a checker that
fires on the wrong line trains people to ignore it.
"""

import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source

SIMNET = Path("src/repro/simnet/mod.py")
ANALYSIS = Path("src/repro/analysis/mod.py")
MEASURE = Path("src/repro/measure/mod.py")


def diags(source, path=SIMNET):
    return lint_source(textwrap.dedent(source), Path(path), Policy())


def hits(source, path=SIMNET):
    return [(d.rule, d.line) for d in diags(source, path)]


# ---------------------------------------------------------------------------
# DET01 — wall clock / module-level random
# ---------------------------------------------------------------------------


def test_det01_flags_time_time():
    assert hits("""\
        import time

        def stamp():
            return time.time()
    """) == [("DET01", 4)]


def test_det01_flags_perf_counter_and_datetime_now():
    assert hits("""\
        import datetime
        import time

        def snap():
            a = time.perf_counter()
            b = datetime.datetime.now()
            return a, b
    """) == [("DET01", 5), ("DET01", 6)]


def test_det01_flags_from_import_alias():
    assert hits("""\
        from time import perf_counter as clock

        def snap():
            return clock()
    """) == [("DET01", 4)]


def test_det01_flags_module_level_random():
    assert hits("""\
        import random

        def pick(xs):
            return random.choice(xs)
    """) == [("DET01", 4)]


def test_det01_clean_for_injected_rng():
    """Calls on an injected random.Random instance are the sanctioned
    pattern and must not be confused with the module-level functions."""
    assert hits("""\
        import random

        def pick(rng: random.Random, xs):
            return rng.choice(xs)

        def make():
            return random.Random(7)
    """) == []


def test_det01_perfcounters_module_is_exempt():
    source = """\
        import time

        def wall():
            return time.perf_counter()
    """
    assert hits(source, "src/repro/simnet/perfcounters.py") == []
    assert hits(source, "src/repro/simnet/kernel.py") == [("DET01", 4)]


def test_det01_outside_its_zones_is_clean():
    assert hits("""\
        import time

        def wall():
            return time.time()
    """, "src/repro/measure/supervise.py") == []


# ---------------------------------------------------------------------------
# DET02 — set iteration feeding ordering-sensitive output
# ---------------------------------------------------------------------------


def test_det02_flags_list_of_set():
    assert hits("""\
        def order(flows: set):
            return list(flows)
    """) == [("DET02", 2)]


def test_det02_flags_append_loop_over_set():
    assert hits("""\
        def collect(flows: set):
            out = []
            for flow in flows:
                out.append(flow)
            return out
    """) == [("DET02", 3)]


def test_det02_flags_float_sum_over_set_genexp():
    assert hits("""\
        def total(flows: set):
            return sum(f.weight for f in flows)
    """) == [("DET02", 2)]


def test_det02_flags_yield_from_and_unpacking():
    assert hits("""\
        def emit(flows: set):
            yield from flows

        def spread(flows: set):
            return [*flows]
    """) == [("DET02", 2), ("DET02", 5)]


def test_det02_infers_sets_from_literals_and_ops():
    assert hits("""\
        def build(xs, ys):
            live = {x for x in xs} & set(ys)
            return list(live)
    """) == [("DET02", 3)]


def test_det02_sorted_absolves():
    assert hits("""\
        def order(flows: set):
            return sorted(flows, key=lambda f: f.fid)

        def names(flows: set):
            return sorted({f.name for f in flows})
    """) == []


def test_det02_order_free_consumers_are_clean():
    assert hits("""\
        def stats(flows: set):
            return len(flows), min(flows), any(flows), frozenset(flows)
    """) == []


def test_det02_keyed_write_and_counter_loops_are_clean():
    """Per-key writes keyed by the loop variable and integer counting
    are order-free — the optimized allocator leans on both."""
    assert hits("""\
        def rates(flows: set):
            out = {}
            n = 0
            for flow in flows:
                out[flow] = 1.0
                n += 1
            return out, n
    """) == []


def test_det02_dict_iteration_is_clean():
    """Dicts iterate in insertion order — deterministic, never flagged
    (the insertion-ordered dict-as-set idiom depends on this)."""
    assert hits("""\
        def collect(classes: dict):
            out = []
            for cls in classes:
                out.append(cls)
            return out
    """) == []


def test_det02_read_modify_write_loop_is_flagged():
    assert hits("""\
        def charge(flows: set, residual):
            for flow in flows:
                residual[flow.res] = residual[flow.res] - flow.rate
    """) == [("DET02", 2)]


# ---------------------------------------------------------------------------
# NUM01 — bare float accumulation in reduction paths
# ---------------------------------------------------------------------------


def test_num01_flags_bare_sum():
    assert hits("""\
        def mean(values):
            return sum(values) / len(values)
    """, ANALYSIS) == [("NUM01", 2)]


def test_num01_integer_count_idiom_is_clean():
    assert hits("""\
        def count(lines):
            return sum(1 for line in lines if line.strip())
    """, ANALYSIS) == []


def test_num01_flags_float_accumulator_loop():
    assert hits("""\
        def total(values):
            acc = 0.0
            for v in values:
                acc += v
            return acc
    """, ANALYSIS) == [("NUM01", 4)]


def test_num01_integer_accumulator_is_clean():
    assert hits("""\
        def count(values):
            n = 0
            for v in values:
                n += 1
            return n
    """, ANALYSIS) == []


def test_num01_applies_in_measure_store_but_not_measure_io():
    source = """\
        def fold(values):
            return sum(values)
    """
    assert hits(source, "src/repro/measure/store.py") == [("NUM01", 2)]
    assert hits(source, "src/repro/measure/io.py") == []


def test_num01_backend_module_is_exempt():
    assert hits("""\
        def fsum(values):
            return sum(values)
    """, "src/repro/analysis/backend.py") == []


# ---------------------------------------------------------------------------
# IO01 — raw writable open outside the atomic helpers
# ---------------------------------------------------------------------------


def test_io01_flags_raw_write_opens():
    assert hits("""\
        def dump(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """, MEASURE) == [("IO01", 2)]


def test_io01_flags_path_open_and_write_text():
    assert hits("""\
        def dump(path, data):
            handle = path.open("wb")
            handle.write(data)
            path.write_text("x")
    """, MEASURE) == [("IO01", 2), ("IO01", 4)]


def test_io01_read_opens_are_clean():
    assert hits("""\
        def load(path):
            with open(path) as a, open(path, "rb") as b, \\
                    path.open("r") as c:
                return a, b, c
    """, MEASURE) == []


def test_io01_measure_io_is_the_sanctioned_writer():
    assert hits("""\
        def write_shard(path, data):
            with open(path, "w") as handle:
                handle.write(data)
    """, "src/repro/measure/io.py") == []


# ---------------------------------------------------------------------------
# MP01 — module-level mutable state mutated from function scope
# ---------------------------------------------------------------------------


def test_mp01_flags_module_cache_written_by_function():
    assert hits("""\
        _cache = {}

        def remember(key, value):
            _cache[key] = value
    """, MEASURE) == [("MP01", 1)]


def test_mp01_flags_mutating_method_and_global_rebind():
    assert hits("""\
        _seen = set()
        _mode = None

        def mark(x):
            _seen.add(x)

        def set_mode(m):
            global _mode
            _mode = m
    """, MEASURE) == [("MP01", 1), ("MP01", 2)]


def test_mp01_local_shadow_is_clean():
    assert hits("""\
        _cache = {}

        def pure(key, value):
            _cache = {}
            _cache[key] = value
            return _cache
    """, MEASURE) == []


def test_mp01_read_only_module_state_is_clean():
    assert hits("""\
        _TABLE = {"a": 1}
        _NAMES = ("x", "y")

        def look(key):
            return _TABLE.get(key), _NAMES[0]
    """, MEASURE) == []


def test_mp01_outside_its_zones_is_clean():
    assert hits("""\
        _cache = {}

        def remember(key, value):
            _cache[key] = value
    """, "src/repro/simnet/mod.py") == []

