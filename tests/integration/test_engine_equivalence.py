"""The production allocator must not change experiment results.

At a fixed seed, every ``run_experiment`` output is unchanged when each
allocation is replaced by the reference water-filling loop (the
``reference_allocator`` fixture). Campaign flows overwhelmingly have
weight 1.0 and reuse circuit paths, so class aggregation is float-exact
and the two produce bit-identical rate vectors end-to-end.
"""

import pytest

from repro.core.config import Scale, WorldConfig
from repro.core.experiments import run_experiment
from repro.core.world import World

EXPERIMENT_IDS = ["fig2a", "fig10b", "fig5"]


@pytest.fixture(scope="module")
def production():
    """Outputs of the production allocator. Module scope runs this
    before any function-scoped fixture patches the allocator."""
    return {eid: run_experiment(eid, seed=11, scale=Scale.tiny())
            for eid in EXPERIMENT_IDS}


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_experiment_metrics_identical_across_engines(
        production, reference_allocator, experiment_id):
    reference = run_experiment(experiment_id, seed=11, scale=Scale.tiny())
    # The reference loop solves per flow: no class collapsing.
    assert reference.perf["classes_allocated"] == \
        reference.perf["flows_allocated"]
    assert production[experiment_id].metrics == reference.metrics
    assert production[experiment_id].text == reference.text


def test_world_perf_summary_counts_allocations():
    world = World(WorldConfig(seed=3, transports=("tor",), tranco_size=2,
                              cbl_size=2))
    page = world.tranco[0]
    result = world.fetch_page_curl("tor", page)
    assert result.duration_s > 0
    summary = world.perf_summary()
    assert summary["reallocations"] > 0
    assert summary["flows_per_class"] >= 1.0
    assert summary["events_fired"] > 0
