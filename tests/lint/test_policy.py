"""Zone policy: module naming, prefix matching, pyproject loading."""

import tomllib
from pathlib import Path

import pytest

from repro.lint.engine import run
from repro.lint.policy import (
    Policy,
    RulePolicy,
    find_pyproject,
    load_policy,
)


def _write(path: Path, source: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)


def test_zone_match_is_prefix_at_dot_boundaries():
    policy = RulePolicy(zones=("repro.simnet",))
    assert policy.applies_to("repro.simnet")
    assert policy.applies_to("repro.simnet.fairshare")
    assert not policy.applies_to("repro.simnetwork")
    assert not policy.applies_to("repro.measure")


def test_exempt_prefix_wins_inside_a_zone():
    policy = RulePolicy(zones=("repro.simnet",),
                        exempt=("repro.simnet.perfcounters",))
    assert policy.applies_to("repro.simnet.kernel")
    assert not policy.applies_to("repro.simnet.perfcounters")


def test_module_name_uses_src_marker_anywhere(tmp_path):
    policy = Policy()
    path = tmp_path / "deep" / "src" / "repro" / "simnet" / "flow.py"
    assert policy.module_name(path) == "repro.simnet.flow"


def test_module_name_package_init_drops_suffix(tmp_path):
    policy = Policy()
    path = tmp_path / "src" / "repro" / "lint" / "__init__.py"
    assert policy.module_name(path) == "repro.lint"


def test_module_name_falls_back_to_config_root(tmp_path):
    policy = Policy(root=tmp_path)
    path = tmp_path / "tests" / "measure" / "test_io.py"
    assert policy.module_name(path) == "tests.measure.test_io"


def test_load_policy_reads_rule_tables_and_paths(tmp_path):
    config = tmp_path / "pyproject.toml"
    config.write_text('[tool.replint]\npaths = ["src", "tests"]\n')
    policy = load_policy(config)
    assert policy.paths == ("src", "tests")
    assert policy.root == tmp_path
    # A rule table is read only to be refused: zones live on the rules.
    config.write_text('[tool.replint]\npaths = ["src"]\n'
                      '[tool.replint.rules.DET01]\n'
                      'zones = ["repro.simnet"]\n')
    with pytest.raises(ValueError, match=r"\[tool.replint.rules\]"):
        load_policy(config)


def test_load_policy_without_file_gives_defaults(tmp_path):
    assert load_policy(None, start=tmp_path) == Policy()
    assert Policy().paths == ("src",)


@pytest.mark.parametrize("table", [
    # A typo in a key ("zone" for "zones") used to read as empty zones
    # and switch DET01 off without a word.
    '[tool.replint.rules.DET01]\nzone = ["repro.simnet"]\n',
    # So did a misspelled rule id (letter O for digit 0).
    '[tool.replint.rules.DETO1]\nzones = ["repro.simnet"]\n',
])
def test_rule_override_tables_fail_the_run(tmp_path, capsys, table):
    _write(tmp_path / "src/repro/simnet/x.py",
           "import time\n\ndef stamp():\n    return time.time()\n")
    config = tmp_path / "pyproject.toml"
    config.write_text('[tool.replint]\npaths = ["src"]\n')
    assert run([str(tmp_path / "src")]) == 1  # DET01 fires
    assert "DET01" in capsys.readouterr().out

    config.write_text('[tool.replint]\npaths = ["src"]\n\n' + table)
    with pytest.raises(ValueError, match="not supported"):
        load_policy(config)
    assert run([str(tmp_path / "src")]) == 2
    assert "replint: cannot load policy" in capsys.readouterr().out


def test_find_pyproject_walks_up(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.replint]\n")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_pyproject(nested) == tmp_path / "pyproject.toml"
    assert find_pyproject(Path("/nonexistent-xyzzy")) is None


def test_repo_pyproject_mirrors_builtin_zone_defaults():
    """The checked-in config carries no zone tables, so every rule runs
    on exactly the zones written on it."""
    root = Path(__file__).resolve().parents[2]
    policy = load_policy(root / "pyproject.toml")
    assert policy.root == root
    assert "src" in policy.paths
    with open(root / "pyproject.toml", "rb") as handle:
        table = tomllib.load(handle)["tool"]["replint"]
    assert "rules" not in table
