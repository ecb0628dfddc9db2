"""Unit tests for the supervisor and the durable unit journal.

Runner functions live at module level so the process mode (fork or
spawn) can always import them in workers. Deterministic failures are
keyed by attempt number — "fail attempt 0, succeed attempt 1" — never
by wall-clock or shared mutable state.
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import ConfigError
from repro.measure import faults
from repro.measure.supervise import (
    FailedUnit,
    RetryPolicy,
    Supervisor,
    UnitJob,
    UnitJournal,
)


def _jobs(n, args=None):
    return [UnitJob(unit_index=i, seed=i + 10, cell_index=0,
                    args=(i if args is None else args))
            for i in range(n)]


def ok_runner(args, attempt, in_child):
    return {"unit": args, "attempt": attempt}


def fail_first_runner(args, attempt, in_child):
    if attempt == 0:
        raise RuntimeError(f"flaky unit {args}")
    return {"unit": args, "attempt": attempt}


def always_fail_runner(args, attempt, in_child):
    raise RuntimeError(f"broken unit {args}")


def crash_first_runner(args, attempt, in_child):
    if attempt == 0:
        if in_child:
            os._exit(3)
        raise faults.InjectedCrash("boom")
    return {"unit": args, "attempt": attempt}


@pytest.mark.parametrize("workers", [1, 2])
def test_all_units_complete(workers):
    result = Supervisor(ok_runner, _jobs(4), workers=workers).run()
    assert sorted(result.payloads) == [0, 1, 2, 3]
    assert all(result.payloads[i]["attempt"] == 0 for i in range(4))
    assert not result.failures
    assert result.counters["unit_retries"] == 0
    assert result.counters["failed_units"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_attempts_are_retried(workers):
    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    result = Supervisor(fail_first_runner, _jobs(3), workers=workers,
                        policy=policy).run()
    assert sorted(result.payloads) == [0, 1, 2]
    assert all(result.payloads[i]["attempt"] == 1 for i in range(3))
    assert result.counters["unit_retries"] == 3
    assert result.counters["unit_errors"] == 3
    assert not result.failures


@pytest.mark.parametrize("workers", [1, 2])
def test_exhausted_units_become_failed_reports(workers):
    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    result = Supervisor(always_fail_runner, _jobs(2), workers=workers,
                        policy=policy).run()
    assert result.payloads == {}
    assert [f.unit_index for f in result.failures] == [0, 1]
    failed = result.failures[0]
    assert isinstance(failed, FailedUnit)
    assert failed.attempts == 2                       # retries + 1
    assert "broken unit 0" in failed.reason
    assert len(failed.history) == 2
    assert result.counters["failed_units"] == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_crashed_workers_are_replaced_and_unit_retried(workers):
    policy = RetryPolicy(retries=2, backoff_base_s=0.0)
    result = Supervisor(crash_first_runner, _jobs(3), workers=workers,
                        policy=policy).run()
    assert sorted(result.payloads) == [0, 1, 2]
    assert result.counters["worker_crashes"] == 3
    assert not result.failures
    if workers > 1:
        # One fresh process per attempt: 3 crashed + 3 succeeded.
        assert result.counters["workers_spawned"] == 6


def test_injected_hang_times_out_in_process_mode():
    plan = faults.FaultPlan(faults=((0, 0, faults.HANG),))
    policy = RetryPolicy(retries=1, unit_timeout_s=0.5, backoff_base_s=0.0)
    result = Supervisor(ok_runner, _jobs(2), workers=2, policy=policy,
                        fault_plan=plan).run()
    assert sorted(result.payloads) == [0, 1]
    assert result.counters["unit_timeouts"] == 1
    assert not result.failures


def test_injected_hang_counts_as_timeout_inline():
    plan = faults.FaultPlan(faults=((1, 0, faults.HANG),))
    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    result = Supervisor(ok_runner, _jobs(2), workers=1, policy=policy,
                        fault_plan=plan).run()
    assert sorted(result.payloads) == [0, 1]
    assert result.counters["unit_timeouts"] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_rejection_forces_retry(workers):
    def verify(job, payload):
        if payload["attempt"] == 0:
            return "corrupt shard (test)"
        return None

    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    result = Supervisor(ok_runner, _jobs(2), workers=workers,
                        policy=policy, verify=verify).run()
    assert all(result.payloads[i]["attempt"] == 1 for i in range(2))
    assert result.counters["corrupt_shards"] == 2
    assert not result.failures


def test_on_success_fires_once_per_unit_in_completion_order():
    seen = []

    def on_success(job, payload, attempts):
        seen.append((job.unit_index, attempts))

    policy = RetryPolicy(retries=1, backoff_base_s=0.0)
    Supervisor(fail_first_runner, _jobs(3), workers=1, policy=policy,
               on_success=on_success).run()
    assert seen == [(0, 2), (1, 2), (2, 2)]


def test_empty_job_list():
    result = Supervisor(ok_runner, []).run()
    assert result.payloads == {}
    assert not result.failures


@pytest.mark.parametrize("bad", [
    dict(retries=-1),
    dict(unit_timeout_s=0.0),
    dict(backoff_base_s=-1.0),
    dict(backoff_factor=0.5),
])
def test_retry_policy_validation(bad):
    with pytest.raises(ConfigError):
        RetryPolicy(**bad)


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                         backoff_max_s=0.35)
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.35)   # capped
    assert RetryPolicy(backoff_base_s=0.0).backoff_s(5) == 0.0


class _SpawnRefusingContext:
    """A multiprocessing context whose Process constructor fails.

    Pipe() delegates to the real context so the test observes genuine
    Connection objects; Process() raises before any child exists —
    the exact mid-spawn-window edge the supervisor must clean up.
    """

    def __init__(self, real):
        self._real = real
        self.pipes = []

    def Pipe(self, duplex=True):
        ends = self._real.Pipe(duplex=duplex)
        self.pipes.append(ends)
        return ends

    def Process(self, *args, **kwargs):
        raise OSError("spawn refused (injected)")


def test_spawn_failure_mid_window_closes_both_pipe_ends(monkeypatch):
    # A Process() that fails between Pipe() and registration in the
    # running table leaves nothing for the outer teardown to see; the
    # spawn loop itself must close both ends before re-raising.
    ctx = _SpawnRefusingContext(multiprocessing.get_context())
    monkeypatch.setattr(multiprocessing, "get_context", lambda: ctx)
    with pytest.raises(OSError, match="spawn refused"):
        Supervisor(ok_runner, _jobs(2), workers=2).run()
    assert len(ctx.pipes) == 1  # the raise stops the spawn loop
    recv_end, send_end = ctx.pipes[0]
    assert recv_end.closed and send_end.closed


# ---------------------------------------------------------------------------
# process and pipe lifecycle: nothing outlives Supervisor.run()
# ---------------------------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _reject_first_attempt(job, payload):
    return "corrupt shard (test)" if payload["attempt"] == 0 else None


_EAGER = RetryPolicy(retries=2, backoff_base_s=0.0)
_LIFECYCLE_CASES = {
    "ok": dict(fn=ok_runner),
    "error": dict(fn=fail_first_runner, policy=_EAGER),
    "crash": dict(fn=crash_first_runner, policy=_EAGER),
    "hang": dict(fn=ok_runner,
                 fault_plan=faults.FaultPlan(faults=((0, 0, faults.HANG),)),
                 policy=RetryPolicy(retries=1, unit_timeout_s=0.5,
                                    backoff_base_s=0.0)),
    "verify": dict(fn=ok_runner, policy=_EAGER,
                   verify=_reject_first_attempt),
}


@pytest.mark.parametrize("kind", sorted(_LIFECYCLE_CASES))
def test_process_mode_leaves_no_fds_or_children(kind):
    # Every attempt opens a Pipe and a Process; whatever the way the
    # attempt ends, both must be gone when run() returns.
    case = dict(_LIFECYCLE_CASES[kind])
    fn = case.pop("fn")
    assert multiprocessing.active_children() == []
    before = _open_fds()
    result = Supervisor(fn, _jobs(3), workers=2, **case).run()
    assert sorted(result.payloads) == [0, 1, 2]
    assert _open_fds() == before
    assert multiprocessing.active_children() == []


def test_interrupt_mid_campaign_tears_down_in_flight_workers():
    # Unit 0 hangs with no timeout in reach; unit 1's completion raises
    # KeyboardInterrupt from on_success. The teardown must kill the
    # hung sibling and close its pipe before the interrupt propagates.
    def interrupt(job, payload, attempts):
        raise KeyboardInterrupt

    plan = faults.FaultPlan(faults=((0, 0, faults.HANG),))
    policy = RetryPolicy(retries=0, unit_timeout_s=60.0)
    assert multiprocessing.active_children() == []
    before = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        Supervisor(ok_runner, _jobs(2), workers=2, policy=policy,
                   fault_plan=plan, on_success=interrupt).run()
    assert _open_fds() == before
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# unit journal
# ---------------------------------------------------------------------------


def _journal(tmp_path, **kwargs):
    defaults = dict(fingerprint="cafe", n_units=4)
    defaults.update(kwargs)
    return UnitJournal(tmp_path / "journal.jsonl", **defaults)


def test_journal_round_trip(tmp_path):
    journal = _journal(tmp_path)
    assert journal.replay() == {}
    journal.open()
    journal.record(0, 1, {"shard": "a.jsonl"})
    journal.record(2, 3, {"shard": "c.jsonl"})
    journal.close()

    replayed = _journal(tmp_path).replay()
    assert sorted(replayed) == [0, 2]
    assert replayed[0]["payload"] == {"shard": "a.jsonl"}
    assert replayed[2]["attempts"] == 3


def test_journal_record_requires_open(tmp_path):
    with pytest.raises(ConfigError):
        _journal(tmp_path).record(0, 1, {})


def test_journal_torn_tail_is_dropped_and_truncated(tmp_path):
    journal = _journal(tmp_path)
    journal.open()
    journal.record(0, 1, {"shard": "a.jsonl"})
    journal.close()
    # Simulate a SIGKILL mid-append: a fragment with no newline.
    with journal.path.open("ab") as handle:
        handle.write(b'{"type": "unit", "unit": 1, "attem')

    fresh = _journal(tmp_path)
    assert sorted(fresh.replay()) == [0]
    fresh.open()                       # truncates the fragment away
    fresh.record(3, 1, {"shard": "d.jsonl"})
    fresh.close()
    lines = journal.path.read_bytes().splitlines()
    assert len(lines) == 3             # header + unit 0 + unit 3
    assert sorted(_journal(tmp_path).replay()) == [0, 3]


def test_journal_garbage_line_stops_replay_there(tmp_path):
    journal = _journal(tmp_path)
    journal.open()
    journal.record(0, 1, {})
    journal.close()
    with journal.path.open("ab") as handle:
        handle.write(b"not json at all\n")
        handle.write(json.dumps({"type": "unit", "unit": 1,
                                 "attempts": 1, "payload": {}}).encode()
                     + b"\n")
    # Everything after the garbage is suspect: only unit 0 survives.
    assert sorted(_journal(tmp_path).replay()) == [0]


def test_journal_duplicate_units_keep_last(tmp_path):
    journal = _journal(tmp_path)
    journal.open()
    journal.record(1, 1, {"shard": "old.jsonl"})
    journal.record(1, 2, {"shard": "new.jsonl"})
    journal.close()
    replayed = _journal(tmp_path).replay()
    assert replayed[1]["payload"]["shard"] == "new.jsonl"


def test_journal_rejects_wrong_campaign(tmp_path):
    journal = _journal(tmp_path)
    journal.open()
    journal.close()
    with pytest.raises(ConfigError):
        _journal(tmp_path, fingerprint="beef").replay()
    with pytest.raises(ConfigError):
        _journal(tmp_path, n_units=9).replay()


def test_journal_rejects_out_of_range_unit(tmp_path):
    journal = _journal(tmp_path, n_units=2)
    journal.open()
    journal.close()
    with journal.path.open("ab") as handle:
        handle.write(json.dumps({"type": "unit", "unit": 5,
                                 "attempts": 1, "payload": {}}).encode()
                     + b"\n")
    with pytest.raises(ConfigError):
        _journal(tmp_path, n_units=2).replay()


def test_journal_validate_filters_entries(tmp_path):
    journal = _journal(tmp_path)
    journal.open()
    journal.record(0, 1, {"keep": True})
    journal.record(1, 1, {"keep": False})
    journal.close()
    replayed = _journal(tmp_path).replay(
        validate=lambda entry: None if entry["payload"]["keep"] else "no")
    assert sorted(replayed) == [0]


def test_journal_not_a_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"something": "else"}\n')
    with pytest.raises(ConfigError):
        UnitJournal(path, fingerprint="cafe", n_units=4).replay()
