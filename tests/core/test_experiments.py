"""Tests for the experiment registry (every figure/table runs)."""

import pytest

from repro.core.config import Scale
from repro.core.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.errors import ConfigError

TINY = Scale.tiny()

#: Experiments and the paper artefact they regenerate.
EXPECTED_IDS = {
    "table1", "table2", "fig2a", "fig2b", "tables3_4", "tables5_6",
    "table10", "fig3a", "fig3b", "fig4", "fig9", "fig5", "table7", "fig6",
    "fig7", "fig8a", "fig8b", "fig10a", "fig10b", "fig12", "fig11",
    "tables8_9", "medium",
}


def test_registry_covers_every_paper_artifact():
    assert set(EXPERIMENTS) == EXPECTED_IDS


def test_every_experiment_has_paper_reference():
    for definition in list_experiments():
        assert definition.paper_ref
        assert definition.title


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("fig99")


@pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
def test_experiment_runs_and_reports(experiment_id, tiny_seed_runs):
    for result in tiny_seed_runs[experiment_id]:
        assert result.experiment_id == experiment_id
        assert result.text.strip()
        assert result.metrics
        assert result.paper
        comparison = result.comparison()
        assert "paper" in comparison and "measured" in comparison


def test_table7_compares_every_paper_number(tiny_seed_runs):
    """Each Table 7 paper number is keyed like the t-test matrix's pair,
    so the report has a measured value next to it at every seed."""
    for result in tiny_seed_runs["table7"]:
        assert len(result.paper) == 3
        assert set(result.paper) <= set(result.metrics)
        assert result.paper["diff:marionette-obfs4"] == 1194.5


def test_experiments_deterministic_given_seed():
    a = run_experiment("fig2a", seed=11, scale=TINY)
    b = run_experiment("fig2a", seed=11, scale=TINY)
    assert a.metrics == b.metrics


def test_experiments_vary_with_seed():
    a = run_experiment("fig2a", seed=11, scale=TINY)
    b = run_experiment("fig2a", seed=12, scale=TINY)
    assert a.metrics != b.metrics
