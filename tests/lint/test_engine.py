"""Engine + CLI: file walking, diagnostics, exit codes, self-test.

The acceptance fixture plants one violation each of DET01, DET02,
NUM01, IO01, MP01 and SUP01 in a zone-addressed ``src/repro/...`` tree
and pins each diagnostic to its ``file:line`` — the contract the CI
gate rests on (``test_acceptance.py`` pins EXC01 and UNIT03 through
the real CLI, message text included). The self-test then
turns the checker on the shipped repository itself: the tree must be
diagnostic-free (fixed or explicitly suppressed), or the gate is lying.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    Policy,
    iter_python_files,
    lint_paths,
    lint_source,
    load_policy,
)
from repro.lint.engine import run

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _plant_fixture_tree(root: Path) -> dict[str, tuple[Path, int]]:
    """One violation per rule; returns rule -> (file, expected line)."""
    det01 = _write(root, "src/repro/simnet/clocked.py", """\
        import time

        def stamp():
            return time.time()
    """)
    det02 = _write(root, "src/repro/simnet/ordered.py", """\
        def drain(flows: set):
            out = []
            for flow in flows:
                out.append(flow)
            return out
    """)
    num01 = _write(root, "src/repro/analysis/reduce.py", """\
        def mean(values):
            return sum(values) / len(values)
    """)
    io01 = _write(root, "src/repro/measure/export.py", """\
        def dump(path, lines):
            with open(path, "w") as handle:
                handle.writelines(lines)
    """)
    mp01 = _write(root, "src/repro/measure/registry.py", """\
        _seen = {}

        def remember(key, value):
            _seen[key] = value
    """)
    sup01 = _write(root, "src/repro/measure/sloppy.py", """\
        x = 1  # replint: allow[IO01]
    """)
    return {"DET01": (det01, 4), "DET02": (det02, 3),
            "NUM01": (num01, 2), "IO01": (io01, 2),
            "MP01": (mp01, 1), "SUP01": (sup01, 1)}


def test_acceptance_one_violation_per_rule_at_exact_location(tmp_path):
    expected = _plant_fixture_tree(tmp_path)
    diags = lint_paths([tmp_path], Policy())
    by_rule = {d.rule: d for d in diags}
    assert sorted(by_rule) == sorted(expected)
    assert len(diags) == len(expected)
    for rule, (path, line) in expected.items():
        diag = by_rule[rule]
        assert diag.line == line, rule
        assert Path(diag.path).name == path.name, rule


def test_fixing_or_suppressing_clears_the_tree(tmp_path):
    _plant_fixture_tree(tmp_path)
    _write(tmp_path, "src/repro/simnet/clocked.py", """\
        def stamp(kernel):
            return kernel.now
    """)
    _write(tmp_path, "src/repro/simnet/ordered.py", """\
        def drain(flows: set):
            return sorted(flows, key=lambda f: f.fid)
    """)
    _write(tmp_path, "src/repro/analysis/reduce.py", """\
        def mean(values):
            import statistics
            return statistics.fmean(values)
    """)
    _write(tmp_path, "src/repro/measure/export.py", """\
        def dump(path, lines):
            # replint: allow[IO01] -- fixture: exercising the suppression path
            with open(path, "w") as handle:
                handle.writelines(lines)
    """)
    _write(tmp_path, "src/repro/measure/registry.py", """\
        def remember(registry, key, value):
            registry[key] = value
    """)
    _write(tmp_path, "src/repro/measure/sloppy.py", "x = 1\n")
    assert lint_paths([tmp_path], Policy()) == []


def test_diagnostic_format_is_file_line_col_rule():
    diag = Diagnostic("src/repro/x.py", 12, 4, "DET01", "boom")
    assert diag.format() == "src/repro/x.py:12:4: DET01 boom"


def test_iter_python_files_skips_caches_and_dedupes(tmp_path):
    keep = _write(tmp_path, "pkg/mod.py", "x = 1\n")
    _write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "x = 1\n")
    found = list(iter_python_files([tmp_path, keep]))
    assert found == [keep.resolve()]


def test_syntax_error_is_reported_not_raised(tmp_path):
    diags = lint_source("def broken(:\n", tmp_path / "bad.py", Policy())
    assert [d.rule for d in diags] == ["SYNTAX"]


def test_cli_exit_codes(tmp_path, capsys):
    _plant_fixture_tree(tmp_path)
    assert run([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET01" in out and "6 diagnostics" in out

    clean = tmp_path / "clean"
    _write(clean, "src/repro/simnet/ok.py", "x = 1\n")
    assert run([str(clean)]) == 0

    assert run([str(tmp_path / "no-such-dir")]) == 2


def test_cli_list_rules(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "DET01", "DET02", "NUM01", "IO01", "MP01", "EXC01", "UNIT03",
        "SUP01"]


@pytest.mark.parametrize("flag", ["--no-cache", "--cache-file=x.json",
                                  "--stats"])
def test_cli_rejects_removed_modes(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([flag, str(tmp_path)])
    assert exc.value.code == 2


def test_shipped_repository_is_diagnostic_free():
    """The hard gate: the repo's own src/tests/benchmarks trees carry
    zero unsuppressed diagnostics under the checked-in policy."""
    policy = load_policy(REPO_ROOT / "pyproject.toml")
    diags = lint_paths([REPO_ROOT / part for part in policy.paths],
                       policy)
    assert diags == [], "\n".join(d.format() for d in diags)


def test_seeded_violation_is_caught_in_repo_zone(tmp_path):
    """Planting a wall-clock call in a simnet-zoned copy is detected —
    the gate would catch a regression, not just the fixture tree."""
    planted = _write(tmp_path, "src/repro/simnet/flow_patch.py", """\
        import time

        def age(flow):
            return time.time() - flow.t0
    """)
    policy = load_policy(REPO_ROOT / "pyproject.toml")
    diags = lint_paths([planted], policy)
    assert [(d.rule, d.line) for d in diags] == [("DET01", 4)]
