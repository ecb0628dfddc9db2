"""Seeded-violation acceptance: one violation per rule, real CLI.

This is the end-to-end contract for the whole-program rules: plant a
violation whose *source* is two call hops below the zone entry point,
run the real CLI, and pin the **exact** ``file:line:col: RULE``
diagnostic — printed call chain included. EXC01 and UNIT03 ride along
so both layers go through one report. If resolution, taint
propagation, or diagnostic rendering regress in any visible way,
these strings change.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import run


def _write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


@pytest.fixture()
def seeded_tree(tmp_path):
    """One violation per whole-program rule (two hops deep), plus
    EXC01 and UNIT03."""
    # DET03: zone entry -> stamp -> read_clock -> time.time()
    _write(tmp_path, "src/repro/util/clock.py", """\
        import time

        def read_clock():
            return time.time()
    """)
    _write(tmp_path, "src/repro/util/mid.py", """\
        from repro.util.clock import read_clock

        def stamp():
            return read_clock()
    """)
    _write(tmp_path, "src/repro/simnet/engine.py", """\
        from repro.util.mid import stamp

        def step():
            return stamp()
    """)
    # DET04: zone entry -> pass_through -> gather -> set(...)
    _write(tmp_path, "src/repro/util/collect.py", """\
        def gather(items):
            return set(items)
    """)
    _write(tmp_path, "src/repro/util/fwd.py", """\
        from repro.util.collect import gather

        def pass_through(items):
            return gather(items)
    """)
    _write(tmp_path, "src/repro/measure/report.py", """\
        from repro.util.fwd import pass_through

        def render(items):
            return ",".join(pass_through(items))
    """)
    # EXC01: a swallowing handler inside a supervisor zone module.
    _write(tmp_path, "src/repro/measure/campaign.py", """\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                pass
    """)
    # UNIT03: a bare conversion literal on a seconds-suffixed name
    # inside the zone.
    _write(tmp_path, "src/repro/simnet/sched.py", """\
        def to_ms(duration_s):
            return duration_s * 1000.0
    """)
    # The fixture's own repro.units module: outside UNIT03's zones (it
    # implements the conversions) and the fix target for the plant.
    _write(tmp_path, "src/repro/units.py", """\
        def seconds_to_ms(t_s):
            return t_s * 1000.0
    """)
    _write(tmp_path, "pyproject.toml", '[tool.replint]\npaths = ["src"]\n')
    return tmp_path


def _run_lint(tree: Path, capsys, *extra: str) -> tuple[int, str]:
    code = run(["--config", str(tree / "pyproject.toml"),
                *extra, str(tree / "src")])
    return code, capsys.readouterr().out


def test_seeded_violations_exact_diagnostics(seeded_tree, capsys):
    code, out = _run_lint(seeded_tree, capsys)
    assert code == 1
    src = seeded_tree / "src"
    expected = [
        f"{src}/repro/measure/campaign.py:4:4: EXC01 BaseException "
        "swallows KeyboardInterrupt in a supervisor/teardown zone — "
        "Ctrl-C must tear the campaign down deterministically; re-raise "
        "(or os._exit in a worker) after cleanup",
        f"{src}/repro/measure/report.py:4:20: DET04 a set returned by "
        "'gather' (repro.util.collect:2, a set) reaches join() in hash "
        "order via render -> pass_through -> gather — sort in the "
        "producer (sorted(...) with a deterministic key) or before "
        "consuming",
        f"{src}/repro/simnet/engine.py:4:11: DET03 'step' transitively "
        "reaches time.time() via step -> stamp -> read_clock "
        "(repro.util.clock:4) — inject simulated time / a seeded "
        "random.Random instead of ambient state",
        f"{src}/repro/simnet/sched.py:2:11: UNIT03 bare conversion "
        "'* 1000.0' applied to time[s] ('duration_s') — use "
        "repro.units.seconds_to_ms",
        "replint: 4 diagnostics",
    ]
    assert out.splitlines() == expected


def test_seeded_violations_are_individually_suppressible(seeded_tree,
                                                         capsys):
    """Inline allows silence findings of both layers at the flagged
    line."""
    report = seeded_tree / "src/repro/measure/report.py"
    source = report.read_text().replace(
        '    return ",".join(pass_through(items))',
        '    return ",".join(pass_through(items))  '
        "# replint: allow[DET04] -- test fixture accepts hash order")
    report.write_text(source)
    sched = seeded_tree / "src/repro/simnet/sched.py"
    source = sched.read_text().replace(
        "    return duration_s * 1000.0",
        "    return duration_s * 1000.0  "
        "# replint: allow[UNIT03] -- fixture converts by hand deliberately")
    sched.write_text(source)
    code, out = _run_lint(seeded_tree, capsys)
    assert code == 1
    assert "DET04" not in out
    assert "UNIT03" not in out
    assert "replint: 2 diagnostics" in out


def test_seeded_violations_json_format(seeded_tree, capsys):
    code, out = _run_lint(seeded_tree, capsys, "--format=json")
    assert code == 1
    payload = json.loads(out)
    assert [d["rule"] for d in payload["diagnostics"]] == \
        ["EXC01", "DET04", "DET03", "UNIT03"]
    det03 = payload["diagnostics"][2]
    assert det03["path"].endswith("src/repro/simnet/engine.py")
    assert (det03["line"], det03["col"]) == (4, 11)
    assert "via step -> stamp -> read_clock" in det03["message"]
    assert payload["stats"]["files"] == 9
    assert "callgraph:" in payload["stats"]["callgraph"]


def test_fixed_tree_is_clean(seeded_tree, capsys):
    """Applying the diagnostics' own advice clears every finding."""
    _write(seeded_tree, "src/repro/util/clock.py", """\
        def read_clock(clock):
            return clock.now()
    """)
    _write(seeded_tree, "src/repro/util/collect.py", """\
        def gather(items):
            return sorted(set(items))
    """)
    _write(seeded_tree, "src/repro/measure/campaign.py", """\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                queue.abort()
                raise
    """)
    _write(seeded_tree, "src/repro/simnet/sched.py", """\
        from repro.units import seconds_to_ms

        def to_ms(duration_s):
            return seconds_to_ms(duration_s)
    """)
    code, out = _run_lint(seeded_tree, capsys)
    assert (code, out) == (0, "")
