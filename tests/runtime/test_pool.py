"""Unit tests for the persistent worker pool."""

import os

import pytest

from repro.exceptions import WorkerPoolError
from repro.runtime.pool import (
    PoolCall,
    WorkerPool,
    default_worker_count,
    get_pool,
    shutdown_pool,
)


# -- worker entry points (must be importable by name) ------------------------


def _square(x):
    return x * x


def _pid(_arg):
    return os.getpid()


def _boom(message):
    raise ValueError(message)


def _nested_pool(_arg):
    get_pool()


@pytest.fixture()
def pool():
    p = WorkerPool(max_workers=2)
    yield p
    p.shutdown()


def test_dispatch_restores_submission_order(pool):
    calls = [PoolCall(_square, n) for n in range(8)]
    assert pool.dispatch(calls) == [n * n for n in range(8)]


def test_dispatch_is_round_robin_in_submission_order(pool):
    pids = pool.dispatch([PoolCall(_pid, None) for _ in range(6)])
    assert len(set(pids)) == 2
    assert pids == pids[:2] * 3


def test_single_call(pool):
    assert pool.call(_square, 7) == 49


def test_worker_error_raises_typed(pool):
    with pytest.raises(WorkerPoolError) as excinfo:
        pool.dispatch([PoolCall(_boom, "kaput")])
    assert excinfo.value.remote_type == "ValueError"
    assert "kaput" in str(excinfo.value)
    assert "ValueError" in excinfo.value.remote_trace


def test_return_exceptions_keeps_slots(pool):
    outcomes = pool.dispatch(
        [PoolCall(_square, 3), PoolCall(_boom, "x"), PoolCall(_square, 4)],
        return_exceptions=True,
    )
    assert outcomes[0] == 9
    assert isinstance(outcomes[1], WorkerPoolError)
    assert outcomes[2] == 16


def test_pool_survives_worker_errors(pool):
    with pytest.raises(WorkerPoolError):
        pool.dispatch([PoolCall(_boom, "first")])
    assert pool.dispatch([PoolCall(_square, 5)]) == [25]


def test_dead_worker_respawns(pool):
    pool.dispatch([PoolCall(_square, 1)])
    for proc in pool._procs:
        proc.terminate()
        proc.join(timeout=5.0)
    assert pool.dispatch([PoolCall(_square, 6)]) == [36]


def test_nested_pools_forbidden(pool):
    with pytest.raises(WorkerPoolError) as excinfo:
        pool.dispatch([PoolCall(_nested_pool, None)])
    assert excinfo.value.remote_type == "WorkerPoolError"


def test_shutdown_rejects_further_dispatch():
    p = WorkerPool(max_workers=1)
    p.shutdown()
    with pytest.raises(WorkerPoolError):
        p.dispatch([PoolCall(_square, 1)])


def test_default_worker_count_caps_at_cores():
    cores = os.cpu_count() or 1
    assert default_worker_count(None) == cores
    assert default_worker_count(10_000) == cores
    assert default_worker_count(1) == 1
    assert default_worker_count(0) == cores


def test_shared_pool_reused_and_shut_down():
    first = get_pool(1)
    assert get_pool() is first
    shutdown_pool()
    second = get_pool(1)
    assert second is not first
    shutdown_pool()
