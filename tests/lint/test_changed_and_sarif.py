"""``--changed`` (worktree and base-ref modes) and SARIF output.

The ``--changed`` tests drive the real CLI against throwaway git
checkouts: the flag must scope the *report* to git's idea of the
changed files while the whole-program pass still runs over everything.
SARIF structure is pinned at the payload level here; the end-to-end
render (provenance chains included) is pinned in
``test_acceptance.py``.
"""

import json
import subprocess
import textwrap
from pathlib import Path

from repro.lint.engine import (
    Diagnostic,
    _git_changed_files,
    run,
    sarif_payload,
)

_PYPROJECT = """\
    [tool.replint]
    paths = ["src"]
"""

_CLEAN = """\
    def stamp(kernel):
        return kernel.now
"""

_VIOLATION = """\
    import time

    def stamp():
        return time.time()
"""


def _git(root: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(root), *args], check=True,
        capture_output=True, text=True,
        env={"HOME": str(root), "GIT_AUTHOR_NAME": "t",
             "GIT_AUTHOR_EMAIL": "t@t", "GIT_COMMITTER_NAME": "t",
             "GIT_COMMITTER_EMAIL": "t@t", "PATH": "/usr/bin:/bin:/usr/local/bin"})
    return proc.stdout.strip()


def _write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    _write(root, "pyproject.toml", _PYPROJECT)
    _write(root, "src/repro/simnet/clocked.py", _CLEAN)
    _write(root, "src/repro/simnet/other.py", _VIOLATION)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "seed")
    return root


# -- worktree mode (no base ref) ----------------------------------------


def test_changed_without_edits_reports_nothing(tmp_path, capsys):
    root = _checkout(tmp_path)
    # The tree has a violation, but no file changed since HEAD.
    assert run([str(root / "src")]) == 1
    capsys.readouterr()
    assert run([str(root / "src"), "--changed"]) == 0
    assert capsys.readouterr().out == ""


def test_changed_scopes_the_report_to_edited_files(tmp_path, capsys):
    root = _checkout(tmp_path)
    _write(root, "src/repro/simnet/clocked.py", _VIOLATION)
    assert run([str(root / "src"), "--changed"]) == 1
    out = capsys.readouterr().out
    # Both files violate DET01; only the edited one is reported.
    assert "clocked.py" in out
    assert "other.py" not in out
    assert "replint: 1 diagnostic" in out


def test_changed_includes_untracked_files(tmp_path, capsys):
    root = _checkout(tmp_path)
    _write(root, "src/repro/simnet/fresh.py", _VIOLATION)
    assert run([str(root / "src"), "--changed"]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out and "other.py" not in out


# -- base-ref mode (--changed=BASE) -------------------------------------


def test_changed_base_ref_scopes_to_commits_since_merge_base(tmp_path,
                                                             capsys):
    root = _checkout(tmp_path)
    base = _git(root, "rev-parse", "HEAD")
    _write(root, "src/repro/simnet/clocked.py", _VIOLATION)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "edit")
    # Committed work is invisible to worktree mode...
    assert run([str(root / "src"), "--changed"]) == 0
    capsys.readouterr()
    # ...but diffing against the base ref catches it, scoped.
    code = run([str(root / "src"), f"--changed={base}"])
    assert code == 1
    out = capsys.readouterr().out
    assert "clocked.py" in out and "other.py" not in out


def test_changed_base_ref_clean_when_nothing_diverged(tmp_path, capsys):
    root = _checkout(tmp_path)
    assert run([str(root / "src"), "--changed=HEAD"]) == 0
    assert capsys.readouterr().out == ""


def test_changed_with_unresolvable_base_is_a_usage_error(tmp_path,
                                                         capsys):
    root = _checkout(tmp_path)
    code = run([str(root / "src"), "--changed=no-such-ref"])
    assert code == 2
    assert "--changed requires" in capsys.readouterr().out


def test_changed_outside_a_checkout_is_a_usage_error(tmp_path, capsys):
    root = tmp_path / "plain"
    _write(root, "pyproject.toml", _PYPROJECT)
    _write(root, "src/repro/simnet/mod.py", _CLEAN)
    code = run([str(root / "src"), "--changed"])
    assert code == 2
    assert "--changed requires" in capsys.readouterr().out


def test_git_changed_files_base_mode_uses_the_merge_base(tmp_path):
    root = _checkout(tmp_path)
    base = _git(root, "rev-parse", "HEAD")
    edited = _write(root, "src/repro/simnet/clocked.py", _VIOLATION)
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "edit")
    assert _git_changed_files(root) == frozenset()
    assert _git_changed_files(root, base) == {edited.resolve()}
    assert _git_changed_files(root, "no-such-ref") is None


# -- SARIF --------------------------------------------------------------


def test_sarif_payload_structure():
    diag = Diagnostic("src/repro/x.py", 12, 4, "UNIT03", "bare * 1000")
    payload = sarif_payload([diag])
    assert payload["version"] == "2.1.0"
    run_obj = payload["runs"][0]
    driver = run_obj["tool"]["driver"]
    assert driver["name"] == "replint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"UNIT03", "DET01", "DET03", "SUP01", "SYNTAX"} <= \
        set(rule_ids)
    assert all(rule["shortDescription"]["text"]
               for rule in driver["rules"])
    result = run_obj["results"][0]
    assert result["ruleId"] == "UNIT03"
    assert result["level"] == "error"
    assert result["message"]["text"] == "bare * 1000"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/x.py"
    # SARIF is 1-based; replint columns are 0-based AST offsets.
    assert location["region"] == {"startLine": 12, "startColumn": 5}


def test_sarif_payload_empty_run_is_valid():
    payload = sarif_payload(())
    assert payload["runs"][0]["results"] == []


def test_sarif_cli_clean_tree_prints_an_empty_log(tmp_path, capsys):
    root = tmp_path / "clean"
    _write(root, "pyproject.toml", _PYPROJECT)
    _write(root, "src/repro/simnet/mod.py", _CLEAN)
    assert run([str(root / "src"), "--format=sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"] == []


def test_sarif_cli_changed_early_exit_still_prints_a_log(tmp_path,
                                                         capsys):
    root = _checkout(tmp_path)
    assert run([str(root / "src"), "--changed",
                "--format=sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"] == []
