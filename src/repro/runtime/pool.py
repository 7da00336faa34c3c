"""The persistent worker pool behind every parallel execution path.

The rule: whatever owns a rack runs it in its own process; work that is
actually parallel — traffic shards, sweep cells, chaos/lifecycle replica
cross-checks — goes to this one pool through :func:`fan_out`. Spawning
workers per run would pay process start in every run, which dominates
short, repeated phases, so :class:`WorkerPool` keeps a small set of
worker *processes* alive for the lifetime of the parent. **Dispatch** is
a synchronous fan-out of ``(fn, arg)`` tasks, round-robin over the
workers in submission order, with results restored to submission order
so merges are deterministic. A task carries everything it needs: workers
hold no state between tasks, so a respawned worker is as good as the one
it replaces. (Where fan-out pays at all — a serial replay worth ≈0.15 s
or more — is measured in ``docs/performance.md``.)

Workers are daemonic, survive across dispatches, watch for parent death
(a SIGKILLed parent cannot close them down gracefully), and are respawned
transparently if one dies. Results travel over a dedicated pipe per
worker rather than one shared queue: a shared queue guards its pipe with
a cross-process semaphore, and a worker killed in the instant between
writing a result and releasing that semaphore would poison the queue for
every respawned worker (POSIX semaphores are not released on process
death). One writer per pipe needs no lock, and a dead worker's pipe
EOFs, which doubles as instant death detection.

Parent-side observability: ``runtime.workers`` gauge,
``runtime.tasks{kind}`` counter, ``runtime.dispatch.seconds{kind}``
latency histogram, ``runtime.pool.restarts`` counter.
"""

from __future__ import annotations

import atexit
import multiprocessing
from multiprocessing import connection as mp_connection
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import WorkerPoolError
from repro.obs import MetricsRegistry, get_registry

#: how long a worker sleeps on an empty queue before re-checking that its
#: parent is still alive (seconds).
_ORPHAN_POLL_SECONDS = 5.0

#: how long the parent waits between liveness checks while collecting.
_COLLECT_POLL_SECONDS = 1.0


def _pool_context():
    """Prefer fork (cheap spawn, inherited imports) where available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def default_worker_count(requested: Optional[int] = None) -> int:
    """Cap a requested worker count at the machine's core count."""
    cores = os.cpu_count() or 1
    if requested is None or requested < 1:
        return cores
    return max(1, min(requested, cores))


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

_IN_WORKER = False


def in_worker() -> bool:
    """True inside a pool worker process (no nested pools there)."""
    return _IN_WORKER


def _worker_main(index: int, parent_pid: int, task_q, result_conn) -> None:
    global _IN_WORKER
    _IN_WORKER = True
    while True:
        try:
            item = task_q.get(timeout=_ORPHAN_POLL_SECONDS)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return  # orphaned by a killed parent
            continue
        if item is None:
            return
        job_id, fn, arg = item
        try:
            result = fn(arg)
            # Pickle eagerly so serialization failures surface as this
            # task's error instead of corrupting the result stream.
            payload = pickle.dumps((True, result))
        except BaseException as exc:  # noqa: BLE001 — workers must survive
            payload = pickle.dumps((False, (
                type(exc).__name__, str(exc), traceback.format_exc(),
            )))
        try:
            result_conn.send_bytes(pickle.dumps((job_id, payload)))
        except (BrokenPipeError, OSError):
            return  # parent went away


@dataclass
class PoolCall:
    """One task of a dispatch wave."""

    fn: Callable
    arg: object


class _RemoteTaskError(Exception):
    """Internal wrapper for a worker-side exception (re-raised typed)."""

    def __init__(self, name: str, message: str, trace: str):
        super().__init__(f"{name}: {message}")
        self.name = name
        self.message = message
        self.trace = trace


class WorkerPool:
    """A long-lived pool of worker processes with deterministic dispatch."""

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = default_worker_count(max_workers)
        self._ctx = _pool_context()
        #: parent-side read end of each worker's private result pipe.
        self._result_conns: List[object] = []
        self._task_qs: List[object] = []
        self._procs: List[object] = []
        self._rr = 0
        self._next_job = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self._closed

    def _spawn(self, index: int) -> None:
        task_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, os.getpid(), task_q, send_conn),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        proc.start()
        # Drop the parent's copy of the write end so the pipe EOFs the
        # moment the worker dies.
        send_conn.close()
        if index < len(self._procs):
            self._close_conn(self._result_conns[index])
            self._result_conns[index] = recv_conn
            self._task_qs[index] = task_q
            self._procs[index] = proc
        else:
            self._result_conns.append(recv_conn)
            self._task_qs.append(task_q)
            self._procs.append(proc)

    @staticmethod
    def _close_conn(conn) -> None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _ensure_workers(self) -> None:
        if self._closed:
            raise WorkerPoolError("worker pool is shut down")
        while len(self._procs) < self.max_workers:
            self._spawn(len(self._procs))
        for index, proc in enumerate(self._procs):
            if not proc.is_alive():
                get_registry().counter("runtime.pool.restarts").inc()
                self._spawn(index)
        get_registry().gauge("runtime.workers").set(len(self._procs))

    def shutdown(self) -> None:
        """Stop every worker; the pool cannot be used afterwards."""
        if self._closed:
            return
        self._closed = True
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
        for conn in self._result_conns:
            self._close_conn(conn)
        self._procs.clear()
        self._task_qs.clear()
        self._result_conns.clear()
        get_registry().gauge("runtime.workers").set(0)

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, calls: Sequence[PoolCall], *,
                 return_exceptions: bool = False,
                 timeout: Optional[float] = None) -> List[object]:
        """Run ``calls`` across the workers; results in submission order.

        Tasks spread round-robin over the workers in submission order.
        With ``return_exceptions`` worker-side errors come back as
        :class:`WorkerPoolError` instances in the result slots instead
        of raising on the first failure.
        """
        if not calls:
            return []
        registry = get_registry()
        kind = calls[0].fn.__name__
        started = time.perf_counter()
        with self._lock:
            self._ensure_workers()
            jobs: Dict[int, int] = {}  # job id -> result slot
            for slot, call in enumerate(calls):
                index = self._rr % self.max_workers
                self._rr += 1
                job_id = self._next_job
                self._next_job += 1
                jobs[job_id] = slot
                self._task_qs[index].put((job_id, call.fn, call.arg))
            registry.counter("runtime.tasks", kind=kind).inc(len(calls))
            results: List[object] = [None] * len(calls)
            outcomes = self._collect(jobs, results, timeout)
        registry.histogram(
            "runtime.dispatch.seconds", kind=kind
        ).observe(time.perf_counter() - started)
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, WorkerPoolError):
                    raise outcome
        return outcomes

    def _collect(self, jobs: Dict[int, int], results: List[object],
                 timeout: Optional[float]) -> List[object]:
        pending = set(jobs)
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending:
            ready = mp_connection.wait(
                self._result_conns, timeout=_COLLECT_POLL_SECONDS
            )
            if not ready:
                if deadline is not None and time.monotonic() > deadline:
                    raise WorkerPoolError(
                        f"pool dispatch timed out with {len(pending)} "
                        "tasks outstanding"
                    ) from None
                continue
            for conn in ready:
                try:
                    job_id, payload = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    # EOF: the worker died (possibly mid-message).
                    index = self._result_conns.index(conn)
                    raise WorkerPoolError(
                        f"worker {index} died mid-dispatch "
                        f"({len(pending)} tasks outstanding)"
                    ) from None
                if job_id not in jobs:  # pragma: no cover - stale result
                    continue
                pending.discard(job_id)
                ok, value = pickle.loads(payload)
                if ok:
                    results[jobs[job_id]] = value
                else:
                    name, message, trace = value
                    error = WorkerPoolError(
                        f"worker task failed: {name}: {message}"
                    )
                    error.remote_type = name
                    error.remote_trace = trace
                    results[jobs[job_id]] = error
        return results

    def call(self, fn: Callable, arg: object) -> object:
        """Dispatch a single task and return its result (or raise)."""
        return self.dispatch([PoolCall(fn, arg)])[0]


# ---------------------------------------------------------------------------
# process-wide shared pool
# ---------------------------------------------------------------------------

_shared_pool: Optional[WorkerPool] = None


def get_pool(max_workers: Optional[int] = None) -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    ``max_workers`` only grows the pool (capped at the core count);
    an existing larger pool is reused as-is. Raises inside a pool worker
    — nested pools are forbidden, callers should run serially there.
    """
    global _shared_pool
    if in_worker():
        raise WorkerPoolError(
            "nested worker pools are not allowed inside a pool worker"
        )
    if _shared_pool is None or not _shared_pool.alive:
        _shared_pool = WorkerPool(max_workers)
    elif max_workers is not None:
        wanted = default_worker_count(max_workers)
        if wanted > _shared_pool.max_workers:
            _shared_pool.max_workers = wanted
    return _shared_pool


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; atexit)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown()
        _shared_pool = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# the one fan-out policy
# ---------------------------------------------------------------------------


def warn_serial_fallback(what: str, reason: object) -> None:
    """The single warning every fan-out caller emits when it cannot use
    the pool and runs its tasks serially in-process instead."""
    warnings.warn(
        f"{what}: {reason}; running serially in-process",
        RuntimeWarning, stacklevel=3,
    )


def dumps_for_pool(obj: object, what: str) -> bytes:
    """``pickle.dumps(obj)``, or a :class:`WorkerPoolError` naming ``what``.

    An unpicklable task put on a worker's queue dies in the queue's
    feeder thread and leaves dispatch waiting forever, so callers pickle
    up front and treat failure like any other failed dispatch.
    """
    try:
        return pickle.dumps(obj)
    except Exception as exc:  # noqa: BLE001 — arbitrary reducers run
        raise WorkerPoolError(f"{what} not picklable") from exc


def fan_out(fn: Callable, args: Sequence[object], *, workers: int,
            what: str) -> List[object]:
    """``[fn(arg) for arg in args]``, on the persistent pool when it pays.

    One task, or a caller already inside a pool worker (nested pools are
    forbidden), runs serially. Otherwise the tasks dispatch over
    ``workers`` pool workers; a task that cannot be pickled or a failed
    dispatch warns once and runs the same calls serially in-process —
    callers already guarantee serial ≡ pooled, so the results are the
    same bytes either way.
    """
    if len(args) > 1 and not in_worker():
        try:
            dumps_for_pool((fn, list(args)), "tasks are")
            return get_pool(workers).dispatch(
                [PoolCall(fn, arg) for arg in args]
            )
        except WorkerPoolError as exc:
            warn_serial_fallback(what, exc)
    return [fn(arg) for arg in args]


def _replica_render(task) -> str:
    """Worker entry: run a full replica with isolated instrumentation."""
    run, spec = task
    return run(spec, registry=MetricsRegistry()).render()


def run_checked(run: Callable, spec: object, *, jobs: int,
                registry: Optional[MetricsRegistry], what: str,
                error: type):
    """``run(spec, registry=registry)``, cross-checking determinism.

    With ``jobs > 1``, ``jobs - 1`` replica runs execute from the same
    spec (fanned out when there is more than one); every replica's
    rendered report must be byte-identical to the local run's, or
    ``error`` is raised. The returned report is always the local run's,
    so output is independent of ``jobs``.
    """
    report = run(spec, registry=registry)
    replicas = max(0, jobs - 1)
    if replicas:
        rendered = report.render()
        renders = fan_out(_replica_render, [(run, spec)] * replicas,
                          workers=replicas, what=f"{what} replicas")
        for index, other in enumerate(renders):
            if other != rendered:
                raise error(
                    f"{what} replica {index} diverged from the local run "
                    "with the same seed and timeline — determinism "
                    "invariant broken"
                )
    return report


__all__ = [
    "PoolCall",
    "WorkerPool",
    "default_worker_count",
    "dumps_for_pool",
    "fan_out",
    "get_pool",
    "in_worker",
    "run_checked",
    "shutdown_pool",
    "warn_serial_fallback",
]
