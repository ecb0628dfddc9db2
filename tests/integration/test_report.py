"""Integration test for the EXPERIMENTS.md report generator."""

from pathlib import Path

import pytest

from repro.core.config import Scale
from repro.core.experiments import EXPERIMENTS
from repro.analysis.report import generate_experiments_md


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory) -> tuple[Path, Path]:
    """(target, returned path) of one tiny-scale report render."""
    target = tmp_path_factory.mktemp("report") / "EXPERIMENTS.md"
    return target, generate_experiments_md(target, seed=3, scale=Scale.tiny())


def test_render_markdown_covers_every_experiment(tiny_report):
    text = tiny_report[0].read_text()
    for eid, definition in EXPERIMENTS.items():
        assert f"`{eid}`" in text, eid
        assert definition.paper_ref in text, eid
    assert "paper" in text.lower()


def test_generate_writes_file(tiny_report):
    target, written = tiny_report
    assert written == target
    content = target.read_text()
    assert content.startswith("# EXPERIMENTS")
    assert "Figure 2a" in content


def test_repo_experiments_md_exists_and_is_complete():
    """The committed EXPERIMENTS.md covers every artefact."""
    path = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
    assert path.exists(), "EXPERIMENTS.md must ship with the repo"
    content = path.read_text()
    for eid in EXPERIMENTS:
        assert f"`{eid}`" in content, eid
