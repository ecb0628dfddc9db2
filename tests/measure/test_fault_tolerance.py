"""Fault-tolerant campaign execution: faults, degradation, resume.

The invariant under test everywhere: *no injected fault, crash, kill,
or resume may change a single output byte*. A faulted-then-retried (or
killed-then-resumed) campaign must merge bit-identically to a clean
uninterrupted run, because units are pure functions of their spec and
the merge order is fixed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WorldConfig
from repro.errors import ConfigError, UnitsExhaustedError
from repro.measure import faults
from repro.measure.ethics import PacingPolicy
from repro.measure.parallel import (
    CampaignSpec,
    ParallelCampaign,
    matrix_cells,
)
from repro.measure.supervise import RetryPolicy
from repro.simnet.geo import Cities

_FAST = PacingPolicy(gap_between_accesses_s=0.5, batch_size=0)

#: No sleeping between fault-injected attempts: determinism needs no
#: backoff, and tests should not wait out politeness delays.
_EAGER = RetryPolicy(retries=2, backoff_base_s=0.0)


def _matrix_spec(seeds=(3,), clients=None, servers=None, **kwargs):
    clients = clients or [Cities.LONDON]
    servers = servers or [Cities.FRANKFURT]
    defaults = dict(
        seeds=tuple(seeds),
        base_config=WorldConfig(seed=seeds[0], tranco_size=4, cbl_size=4,
                                transports=("tor", "obfs4")),
        pt_names=("tor", "obfs4"),
        cells=matrix_cells(clients, servers),
        n_sites=2, repetitions=1, pacing=_FAST)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def _clean_records(spec):
    return ParallelCampaign(spec, workers=1).run().merged.records


# ---------------------------------------------------------------------------
# fault-then-retry merges identically to no-fault
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", [faults.CRASH, faults.PARTIAL_WRITE,
                                  faults.CORRUPT_SHARD])
def test_faulted_unit_retries_and_merges_identically(tmp_path, workers,
                                                     kind):
    spec = _matrix_spec(seeds=(3, 4))
    plan = faults.FaultPlan(faults=((0, 0, kind),))
    outcome = ParallelCampaign(
        spec, workers=workers, spool_dir=tmp_path / f"sp-{workers}-{kind}",
        retry=_EAGER, fault_plan=plan).run()
    assert outcome.load_merged().records == _clean_records(spec)
    assert not outcome.failed
    assert outcome.execution["unit_retries"] == 1
    if kind == faults.CORRUPT_SHARD:
        # Parent-side digest verification, not the worker, caught it.
        assert outcome.execution["corrupt_shards"] == 1
    perf = outcome.perf_summary()
    assert perf["unit_retries"] == 1


def test_hang_fault_is_reaped_by_timeout_and_retried(tmp_path):
    spec = _matrix_spec(seeds=(3, 4))
    plan = faults.FaultPlan(faults=((1, 0, faults.HANG),))
    policy = RetryPolicy(retries=1, unit_timeout_s=5.0, backoff_base_s=0.0)
    outcome = ParallelCampaign(spec, workers=2, spool_dir=tmp_path / "sp",
                               retry=policy, fault_plan=plan).run()
    assert outcome.load_merged().records == _clean_records(spec)
    assert outcome.execution["unit_timeouts"] == 1
    assert not outcome.failed


def test_crash_faulted_campaign_is_pickle_safe_under_spawn(tmp_path,
                                                         monkeypatch):
    # Under spawn every Process target, argument and pipe payload is
    # pickled, so a lambda runner or an unpicklable payload fails here
    # even though the default fork start method would hide it.
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
    spec = _matrix_spec(seeds=(3, 4))
    plan = faults.FaultPlan(faults=((0, 0, faults.CRASH),))
    outcome = ParallelCampaign(spec, workers=2, spool_dir=tmp_path / "sp",
                               retry=_EAGER, fault_plan=plan).run()
    assert outcome.load_merged().records == _clean_records(spec)
    assert outcome.execution["worker_crashes"] == 1
    assert outcome.execution["workers_spawned"] == 3


def test_partial_write_leaves_no_torn_bytes_in_merge(tmp_path):
    """The torn half-shard at the final path is overwritten by the
    retry's atomic write — record counts and bytes are exact."""
    spec = _matrix_spec()
    plan = faults.FaultPlan(faults=((0, 0, faults.PARTIAL_WRITE),))
    outcome = ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                               retry=_EAGER, fault_plan=plan).run()
    reference = _clean_records(spec)
    assert outcome.load_merged().records == reference
    assert len(outcome.store) == len(reference)


def test_in_memory_mode_survives_crash_faults_too():
    spec = _matrix_spec(seeds=(3, 4))
    plan = faults.FaultPlan(faults=((0, 0, faults.CRASH),))
    outcome = ParallelCampaign(spec, workers=1, retry=_EAGER,
                               fault_plan=plan).run()
    assert outcome.merged.records == _clean_records(spec)
    assert outcome.execution["worker_crashes"] == 1


# ---------------------------------------------------------------------------
# graceful degradation and strictness
# ---------------------------------------------------------------------------


def _always_faulted_plan(unit_index, kind=faults.CRASH, attempts=10):
    return faults.FaultPlan(faults=tuple(
        (unit_index, attempt, kind) for attempt in range(attempts)))


@pytest.mark.parametrize("workers", [1, 2])
def test_exhausted_unit_degrades_to_failed_report(tmp_path, workers):
    spec = _matrix_spec(seeds=(3, 4))
    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    outcome = ParallelCampaign(
        spec, workers=workers, spool_dir=tmp_path / f"sp{workers}",
        retry=policy, fault_plan=_always_faulted_plan(0)).run()
    assert [f.unit_index for f in outcome.failed] == [0]
    failed = outcome.failed[0]
    assert failed.attempts == 2                      # retries + 1
    assert failed.seed == 3 and failed.cell_index == 0
    assert "crash" in failed.reason
    assert len(failed.history) == 2
    # The other unit's records merged cleanly; the failed unit's are
    # explicitly absent, not partially present.
    reference = _clean_records(_matrix_spec(seeds=(4,)))
    assert outcome.load_merged().records == reference
    assert outcome.execution["failed_units"] == 1


def test_strict_mode_raises_units_exhausted(tmp_path):
    spec = _matrix_spec(seeds=(3, 4))
    policy = RetryPolicy(retries=0, backoff_base_s=0.0)
    with pytest.raises(UnitsExhaustedError) as excinfo:
        ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                         retry=policy, strict=True,
                         fault_plan=_always_faulted_plan(0)).run()
    assert [f.unit_index for f in excinfo.value.failed] == [0]
    assert "retry budget" in str(excinfo.value)


def test_strict_failure_leaves_a_resumable_spool(tmp_path):
    """A strict abort journals the completed units first; re-running
    with resume=True and no faults completes and matches clean."""
    spec = _matrix_spec(seeds=(3, 4))
    policy = RetryPolicy(retries=0, backoff_base_s=0.0)
    with pytest.raises(UnitsExhaustedError):
        ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                         retry=policy, strict=True,
                         fault_plan=_always_faulted_plan(1)).run()
    resumed = ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                               retry=_EAGER, strict=True, resume=True,
                               fault_plan=faults.FaultPlan()).run()
    assert resumed.load_merged().records == _clean_records(spec)
    assert resumed.execution["resumed_units"] == 1   # unit 0 adopted


def test_location_matrix_is_strict():
    from repro.measure.locations import location_matrix

    config = WorldConfig(seed=3, tranco_size=4, cbl_size=4,
                         transports=("tor", "obfs4"))
    plan = _always_faulted_plan(0)
    with pytest.raises(UnitsExhaustedError):
        # location_matrix builds its own campaign, so fault it via the
        # environment hook — the same route CI uses.
        plan.to_env()
        try:
            location_matrix(config, ("tor", "obfs4"), n_sites=2,
                            repetitions=1, clients=[Cities.LONDON],
                            servers=[Cities.FRANKFURT], pacing=_FAST,
                            retries=0)
        finally:
            import os

            os.environ.pop(faults.FAULT_PLAN_ENV, None)


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------


def test_resume_requires_spool_dir():
    with pytest.raises(ConfigError):
        ParallelCampaign(_matrix_spec(), resume=True)


def test_resume_after_partial_failure_is_bit_identical(tmp_path):
    spec = _matrix_spec(seeds=(3, 4),
                        clients=[Cities.LONDON, Cities.TORONTO])
    policy = RetryPolicy(retries=0, backoff_base_s=0.0)
    first = ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                             retry=policy,
                             fault_plan=_always_faulted_plan(2)).run()
    assert [f.unit_index for f in first.failed] == [2]
    resumed = ParallelCampaign(spec, workers=2, spool_dir=tmp_path / "sp",
                               retry=_EAGER, resume=True,
                               fault_plan=faults.FaultPlan()).run()
    assert resumed.load_merged().records == _clean_records(spec)
    assert resumed.execution["resumed_units"] == 3
    assert not resumed.failed


def test_resume_with_nothing_missing_is_idempotent(tmp_path):
    spec = _matrix_spec(seeds=(3, 4))
    complete = ParallelCampaign(spec, workers=1,
                                spool_dir=tmp_path / "sp").run()
    resumed = ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                               resume=True).run()
    assert resumed.load_merged().records == complete.load_merged().records
    assert resumed.execution["resumed_units"] == 2
    assert resumed.execution["workers_spawned"] == 0   # nothing re-ran


def test_resume_rejects_a_different_spec(tmp_path):
    ParallelCampaign(_matrix_spec(seeds=(3,)), workers=1,
                     spool_dir=tmp_path / "sp").run()
    with pytest.raises(ConfigError):
        ParallelCampaign(_matrix_spec(seeds=(3, 4)), workers=1,
                         spool_dir=tmp_path / "sp", resume=True).run()


def test_resume_reruns_units_whose_shards_were_corrupted(tmp_path):
    """A journaled unit whose shard bytes changed on disk fails digest
    validation at replay: the shard is quarantined and the unit re-runs,
    restoring the bit-identical merge."""
    spec = _matrix_spec(seeds=(3, 4))
    complete = ParallelCampaign(spec, workers=1,
                                spool_dir=tmp_path / "sp").run()
    victim = complete.units[0].shard
    victim.write_bytes(victim.read_bytes()[:40] + b"garbage\n")
    resumed = ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp",
                               resume=True).run()
    assert resumed.load_merged().records == _clean_records(spec)
    assert resumed.execution["resumed_units"] == 1
    assert victim.with_name(victim.name + ".corrupt").exists()


def test_reused_spool_error_mentions_resume(tmp_path):
    spec = _matrix_spec()
    ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp").run()
    with pytest.raises(ConfigError, match="resume"):
        ParallelCampaign(spec, workers=1, spool_dir=tmp_path / "sp").run()


def test_run_experiment_seeds_resume_round_trip(tmp_path, monkeypatch):
    from repro.core.config import Scale
    from repro.core.experiments import run_experiment_seeds

    clean = run_experiment_seeds("fig2a", [1, 2], scale=Scale.tiny(),
                                 spool_dir=tmp_path / "clean")
    # Crash the second seed's unit on every attempt via the env hook —
    # the only fault route run_experiment_seeds exposes, by design.
    monkeypatch.setenv(faults.FAULT_PLAN_ENV,
                       _always_faulted_plan(1).to_json())
    with pytest.raises(UnitsExhaustedError):
        run_experiment_seeds("fig2a", [1, 2], scale=Scale.tiny(),
                             spool_dir=tmp_path / "sp", retries=0)
    monkeypatch.delenv(faults.FAULT_PLAN_ENV)
    # the second seed's unit never completed; resume finishes it
    resumed = run_experiment_seeds("fig2a", [1, 2], scale=Scale.tiny(),
                                   spool_dir=tmp_path / "sp", resume=True)
    assert [r.metrics for r in resumed] == [r.metrics for r in clean]


# ---------------------------------------------------------------------------
# property: faulted + resumed ≡ clean, across workers and chunk sizes
# ---------------------------------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_faulted_and_resumed_campaign_is_bit_identical(tmp_path_factory,
                                                       data):
    workers = data.draw(st.sampled_from([1, 2]), label="workers")
    chunk_size = data.draw(st.sampled_from([1, 3, 1000]), label="chunk")
    fault_seed = data.draw(st.integers(0, 10 ** 6), label="fault_seed")
    spec = _matrix_spec(seeds=(3, 4),
                        clients=[Cities.LONDON, Cities.TORONTO])
    n_units = 4
    plan = faults.FaultPlan.seeded(
        fault_seed, n_units, rate=0.5,
        kinds=(faults.CRASH, faults.PARTIAL_WRITE, faults.CORRUPT_SHARD))
    reference = _clean_records(spec)

    tmp_path = tmp_path_factory.mktemp("hyp")
    faulted = ParallelCampaign(
        spec, workers=workers, spool_dir=tmp_path / "faulted",
        chunk_size=chunk_size, retry=_EAGER, fault_plan=plan).run()
    assert faulted.load_merged().records == reference
    assert not faulted.failed
    if plan:
        assert faulted.execution["unit_retries"] >= 1

    # Same plan, but the run dies (strictly) with zero retries, then a
    # fresh process resumes it without faults: still bit-identical.
    policy = RetryPolicy(retries=0, backoff_base_s=0.0)
    try:
        ParallelCampaign(spec, workers=workers,
                         spool_dir=tmp_path / "resumable",
                         chunk_size=chunk_size, retry=policy, strict=True,
                         fault_plan=plan).run()
    except UnitsExhaustedError:
        pass
    resumed = ParallelCampaign(spec, workers=workers,
                               spool_dir=tmp_path / "resumable",
                               chunk_size=chunk_size, retry=_EAGER,
                               resume=True,
                               fault_plan=faults.FaultPlan()).run()
    assert resumed.load_merged().records == reference
    assert not resumed.failed
