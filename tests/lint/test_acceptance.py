"""Seeded-violation acceptance through the real CLI.

Plant an EXC01 and a UNIT03 violation in a zone-addressed tree, run
the CLI, and pin the **exact** ``file:line:col: RULE message``
diagnostics in both output formats. An inline allow silences a
finding at its line, and applying the fix each message names clears
the tree.
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
    """An EXC01 and a UNIT03 violation."""
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
        f"{src}/repro/simnet/sched.py:2:11: UNIT03 bare conversion "
        "'* 1000.0' applied to time[s] ('duration_s') — use "
        "repro.units.seconds_to_ms",
        "replint: 2 diagnostics",
    ]
    assert out.splitlines() == expected


def test_seeded_violations_are_individually_suppressible(seeded_tree,
                                                         capsys):
    """An inline allow silences its finding at the flagged line."""
    sched = seeded_tree / "src/repro/simnet/sched.py"
    source = sched.read_text().replace(
        "    return duration_s * 1000.0",
        "    return duration_s * 1000.0  "
        "# replint: allow[UNIT03] -- fixture converts by hand deliberately")
    sched.write_text(source)
    code, out = _run_lint(seeded_tree, capsys)
    assert code == 1
    assert "UNIT03" not in out
    assert "EXC01" in out
    assert "replint: 1 diagnostic" in out


def test_seeded_violations_json_format(seeded_tree, capsys):
    code, out = _run_lint(seeded_tree, capsys, "--format=json")
    assert code == 1
    payload = json.loads(out)
    assert list(payload) == ["diagnostics"]
    assert [d["rule"] for d in payload["diagnostics"]] == \
        ["EXC01", "UNIT03"]
    unit03 = payload["diagnostics"][1]
    assert unit03["path"].endswith("src/repro/simnet/sched.py")
    assert (unit03["line"], unit03["col"]) == (2, 11)
    assert "use repro.units.seconds_to_ms" in unit03["message"]


def test_fixed_tree_is_clean(seeded_tree, capsys):
    """Applying the diagnostics' own advice clears every finding."""
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
