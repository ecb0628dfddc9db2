"""Integration tests: parallel fan-out/merge vs the serial reference.

The determinism contract (docs/parallel-campaigns.md): a merged
parallel campaign is bit-identical — via ``to_rows()`` — to the
equivalent serial run at the same seed, for any worker count.
"""

from dataclasses import replace

from repro.core.config import Scale, WorldConfig
from repro.core.experiments import (
    mean_seed_metrics,
    run_experiment,
    run_experiment_seeds,
)
from repro.core.world import World
from repro.measure.campaign import CampaignRunner
from repro.measure.ethics import PacingPolicy
from repro.measure.locations import location_matrix
from repro.measure.parallel import CampaignSpec, ParallelCampaign, matrix_cells
from repro.measure.records import Method
from repro.simnet.geo import Cities

_FAST = PacingPolicy(gap_between_accesses_s=0.5, batch_size=0)
_CLIENTS = [Cities.LONDON, Cities.BANGALORE]
_SERVERS = [Cities.FRANKFURT]
_PTS = ("tor", "obfs4")


def _serial_reference_rows(config: WorldConfig, n_sites: int) -> list[dict]:
    """The historical serial location loop, inlined as ground truth."""
    rows = []
    for client in _CLIENTS:
        for server in _SERVERS:
            cell_config = replace(config, client_city=client,
                                  server_city=server)
            world = World(cell_config)
            runner = CampaignRunner(world, pacing=_FAST)
            results = runner.run_website_campaign(
                _PTS, world.tranco[:n_sites], method=Method.CURL,
                repetitions=1)
            rows.extend(results.to_rows())
    return rows


def _spec(config: WorldConfig, n_sites: int) -> CampaignSpec:
    return CampaignSpec(
        seeds=(config.seed,), base_config=config, pt_names=_PTS,
        cells=matrix_cells(_CLIENTS, _SERVERS), n_sites=n_sites,
        repetitions=1, pacing=_FAST)


def test_workers_1_bit_identical_to_serial_run():
    config = WorldConfig(seed=41, tranco_size=3, cbl_size=3,
                         transports=_PTS)
    serial_rows = _serial_reference_rows(config, n_sites=3)
    outcome = ParallelCampaign(_spec(config, 3), workers=1).run()
    assert outcome.merged.to_rows() == serial_rows


def test_multiprocessing_identical_to_in_process():
    config = WorldConfig(seed=43, tranco_size=2, cbl_size=2,
                         transports=_PTS)
    spec = _spec(config, 2)
    in_process = ParallelCampaign(spec, workers=1).run()
    fanned_out = ParallelCampaign(spec, workers=2).run()
    assert fanned_out.merged.to_rows() == in_process.merged.to_rows()
    assert fanned_out.perf_summary()["measurements_run"] == \
        in_process.perf_summary()["measurements_run"]


def test_location_matrix_workers_param_changes_nothing():
    config = WorldConfig(seed=47, tranco_size=2, cbl_size=2, transports=_PTS)
    serial = location_matrix(config, _PTS, n_sites=2, repetitions=1,
                             clients=_CLIENTS, servers=_SERVERS,
                             pacing=_FAST, workers=1)
    parallel = location_matrix(config, _PTS, n_sites=2, repetitions=1,
                               clients=_CLIENTS, servers=_SERVERS,
                               pacing=_FAST, workers=2)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        assert (a.client, a.server) == (b.client, b.server)
        assert a.results.to_rows() == b.results.to_rows()


def test_run_experiment_seeds_matches_direct_runs():
    # Deliberately out of ascending order: results must align with the
    # given seed order, not the merge order.
    seeds = [8, 7]
    replicated = run_experiment_seeds("fig2a", seeds, scale=Scale.tiny(),
                                     workers=1)
    for seed, result in zip(seeds, replicated):
        direct = run_experiment("fig2a", seed=seed, scale=Scale.tiny())
        assert result.metrics == direct.metrics
        # The ResultSet survives the worker wire format exactly.
        assert result.results is not None
        assert result.results.to_rows() == direct.results.to_rows()
        assert list(result.results) == list(direct.results)
    means = mean_seed_metrics(replicated)
    assert means
    for key, value in means.items():
        lo = min(r.metrics[key] for r in replicated)
        hi = max(r.metrics[key] for r in replicated)
        assert lo <= value <= hi


def test_experiment_mode_units_report_perf_counters():
    """PR 2 follow-up: experiment-mode units carry simulation perf
    counters (matrix cells always did), so a parallel replication can
    report engine work per unit and in aggregate."""
    seeds = [3, 4]
    replicated = run_experiment_seeds("fig2a", seeds, scale=Scale.tiny(),
                                      workers=1)
    for result in replicated:
        assert result.perf, "experiment units must ship perf counters"
        assert result.perf["reallocations"] > 0
        assert result.perf["worlds"] >= 1.0
        assert "lazy_materializations" in result.perf
    direct = run_experiment("fig2a", seed=3, scale=Scale.tiny())
    assert replicated[0].perf == direct.perf
