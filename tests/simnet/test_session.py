"""Unit tests for the coroutine process layer."""

import pytest

from repro.errors import ProcessTimeout, TransferAborted
from repro.simnet.kernel import EventKernel
from repro.simnet.network import FluidNetwork
from repro.simnet.resource import Resource
from repro.simnet.session import (
    Delay,
    GetTime,
    Parallel,
    Transfer,
    run_process,
    start_process,
)


@pytest.fixture()
def sim():
    kernel = EventKernel()
    return kernel, FluidNetwork(kernel)


def test_delay_advances_time(sim):
    kernel, net = sim

    def proc():
        yield Delay(2.5)
        return (yield GetTime())

    assert run_process(kernel, net, proc()) == pytest.approx(2.5)


def test_get_time_runs_in_constant_stack_depth(sim):
    """Each GetTime resumes the process at once; thousands in a row
    must not nest one call per command."""
    kernel, net = sim

    def proc():
        yield Delay(1.0)
        times = []
        for _ in range(20_000):
            times.append((yield GetTime()))
        return times[0], times[-1], len(times)

    assert run_process(kernel, net, proc()) == (1.0, 1.0, 20_000)


def test_transfer_returns_result(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def proc():
        result = yield Transfer((r,), 1000.0)
        return result

    result = run_process(kernel, net, proc())
    assert result.nbytes == 1000.0
    assert result.duration == pytest.approx(10.0)


def test_sequential_phases_compose(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def proc():
        yield Delay(1.0)
        yield Transfer((r,), 500.0)
        yield Delay(0.5)
        return (yield GetTime())

    assert run_process(kernel, net, proc()) == pytest.approx(6.5)


def test_timeout_during_delay_raises(sim):
    kernel, net = sim

    def proc():
        yield Delay(100.0)

    with pytest.raises(ProcessTimeout):
        run_process(kernel, net, proc(), timeout=1.0)
    assert kernel.now == pytest.approx(1.0)


def test_timeout_during_transfer_carries_partial_bytes(sim):
    kernel, net = sim
    r = Resource("r", 100.0)
    seen = {}

    def proc():
        try:
            yield Transfer((r,), 10_000.0)
        except ProcessTimeout as exc:
            seen["bytes"] = exc.bytes_done
            return "partial"

    result = run_process(kernel, net, proc(), timeout=5.0)
    assert result == "partial"
    assert seen["bytes"] == pytest.approx(500.0)


def test_abort_at_raises_transfer_aborted(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def proc():
        try:
            yield Transfer((r,), 10_000.0, abort_at=3.0)
        except TransferAborted as exc:
            return exc.bytes_done

    assert run_process(kernel, net, proc()) == pytest.approx(300.0)


def test_abort_at_after_completion_is_ignored(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def proc():
        result = yield Transfer((r,), 100.0, abort_at=50.0)
        return result.duration

    assert run_process(kernel, net, proc()) == pytest.approx(1.0)


def test_abort_at_in_past_fails_immediately(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def proc():
        yield Delay(5.0)
        try:
            yield Transfer((r,), 100.0, abort_at=2.0)
        except TransferAborted as exc:
            return ("failed", exc.bytes_done)

    assert run_process(kernel, net, proc()) == ("failed", 0.0)


def test_parallel_children_run_concurrently(sim):
    kernel, net = sim
    r1, r2 = Resource("r1", 100.0), Resource("r2", 100.0)

    def child(res, nbytes):
        result = yield Transfer((res,), nbytes)
        return result.duration

    def parent():
        outcomes = yield Parallel([child(r1, 500.0), child(r2, 1000.0)])
        end = yield GetTime()
        return end, [o.value for o in outcomes]

    end, durations = run_process(kernel, net, parent())
    assert end == pytest.approx(10.0)  # bounded by the slower child
    assert durations == [pytest.approx(5.0), pytest.approx(10.0)]


def test_parallel_shares_contended_resource(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def child(nbytes):
        result = yield Transfer((r,), nbytes)
        return result.duration

    def parent():
        outcomes = yield Parallel([child(500.0), child(500.0)])
        return [o.value for o in outcomes]

    durations = run_process(kernel, net, parent())
    # Both share 100 B/s -> each runs at 50 B/s -> both take 10s.
    assert durations == [pytest.approx(10.0), pytest.approx(10.0)]


def test_parallel_child_error_isolated(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def bad_child():
        yield Delay(1.0)
        raise ValueError("boom")

    def good_child():
        yield Transfer((r,), 100.0)
        return "ok"

    def parent():
        outcomes = yield Parallel([bad_child(), good_child()])
        return outcomes

    outcomes = run_process(kernel, net, parent())
    assert isinstance(outcomes[0].error, ValueError)
    assert outcomes[1].value == "ok"


def test_parallel_empty_list(sim):
    kernel, net = sim

    def parent():
        outcomes = yield Parallel([])
        return outcomes

    assert run_process(kernel, net, parent()) == []


def test_timeout_during_parallel_aborts_children(sim):
    kernel, net = sim
    r = Resource("r", 10.0)
    partial = []

    def child():
        try:
            yield Transfer((r,), 10_000.0)
        except ProcessTimeout as exc:
            partial.append(exc.bytes_done)
            raise

    def parent():
        try:
            yield Parallel([child()])
        except ProcessTimeout:
            return "timed-out"

    assert run_process(kernel, net, parent(), timeout=2.0) == "timed-out"
    assert partial == [pytest.approx(20.0)]
    assert not net.active_flows


def test_nested_parallel(sim):
    kernel, net = sim
    r = Resource("r", 100.0)

    def leaf(n):
        yield Transfer((r,), n)
        return n

    def mid():
        outcomes = yield Parallel([leaf(100.0), leaf(200.0)])
        return sum(o.value for o in outcomes)

    def parent():
        outcomes = yield Parallel([mid(), leaf(50.0)])
        return [o.value for o in outcomes]

    assert run_process(kernel, net, parent()) == [300.0, 50.0]


def test_process_result_propagates_exception(sim):
    kernel, net = sim

    def proc():
        yield Delay(1.0)
        raise RuntimeError("explode")

    with pytest.raises(RuntimeError):
        run_process(kernel, net, proc())


def test_start_process_non_blocking(sim):
    kernel, net = sim

    def proc():
        yield Delay(1.0)
        return 42

    handle = start_process(kernel, net, proc())
    assert not handle.done
    kernel.run()
    assert handle.done and handle.result == 42
