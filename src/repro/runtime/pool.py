"""Process fan-out for the work that is actually parallel.

The rule: whatever owns a rack runs it in its own process, one chain as
one ordered stream; work made of independent tasks — sweep cells,
chaos/lifecycle replica cross-checks — goes through :func:`fan_out`.
Each call opens a fork-context
:class:`~concurrent.futures.ProcessPoolExecutor` for its tasks and
closes it before returning, so a worker sees the parent's state as of
the call (the placement memo included) and keeps nothing afterwards.
Results come back in submission order, so merges are deterministic.

A worker polls its parent and exits once the parent is gone: a
SIGKILLed parent cannot shut its executor down.

Parent-side observability: ``runtime.tasks{kind}`` counter and
``runtime.dispatch.seconds{kind}`` latency histogram.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro.obs import MetricsRegistry, get_registry

#: how often a worker checks that its parent is still alive (seconds).
_ORPHAN_POLL_SECONDS = 0.5


def _pool_context():
    """Prefer fork (cheap spawn, inherited imports) where available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _exit_with_parent(parent_pid: int) -> None:
    """Executor initializer: end this worker once its parent is gone."""
    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_ORPHAN_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="repro-orphan-watch",
                     daemon=True).start()


def warn_serial_fallback(what: str, reason: object) -> None:
    """The single warning every fan-out caller emits when it cannot use
    worker processes and runs its tasks serially in-process instead."""
    warnings.warn(
        f"{what}: {reason}; running serially in-process",
        RuntimeWarning, stacklevel=3,
    )


def fan_out(fn: Callable, args: Sequence[object], *, workers: int,
            what: str) -> List[object]:
    """``[fn(arg) for arg in args]``, over a per-call process pool.

    One task runs serially in-process. Otherwise the tasks run on
    ``min(workers, len(args), cores)`` forked workers. Tasks that cannot
    be pickled, or a worker that dies (``BrokenProcessPool``), warn once
    and run the same calls serially in-process — callers already
    guarantee serial ≡ pooled, so the results are the same bytes either
    way. A task's own exception re-raises here with its own type.
    """
    args = list(args)
    if len(args) <= 1:
        return [fn(arg) for arg in args]
    try:
        pickle.dumps((fn, args))
    except Exception:  # noqa: BLE001 — arbitrary reducers run
        warn_serial_fallback(what, "tasks are not picklable")
        return [fn(arg) for arg in args]
    registry = get_registry()
    kind = fn.__name__
    registry.counter("runtime.tasks", kind=kind).inc(len(args))
    started = time.perf_counter()
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(args), os.cpu_count() or 1),
            mp_context=_pool_context(),
            initializer=_exit_with_parent, initargs=(os.getpid(),),
        ) as pool:
            results = list(pool.map(fn, args))
    except BrokenProcessPool:
        warn_serial_fallback(what, "a worker process died")
        return [fn(arg) for arg in args]
    registry.histogram(
        "runtime.dispatch.seconds", kind=kind
    ).observe(time.perf_counter() - started)
    return results


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
    "fan_out",
    "run_checked",
    "warn_serial_fallback",
]
