"""Sweep engine acceptance: parallel determinism + cache speedup.

Two properties the sweep engine must hold (ISSUE acceptance criteria):

* dispatching the Fig-2 grid over a process pool (``jobs=4``) produces
  *byte-identical* ``ExperimentResult`` rows, in the same order, as the
  serial loop — ``execute_cell`` is the single shared implementation;
* re-running a panel against a warm :class:`PlacementCache` skips every
  LP solve and cuts wall-clock by at least 2x.

The recorded table under ``benchmarks/results/sweep_engine.txt`` holds
the measured numbers for EXPERIMENTS.md.
"""

import time

from conftest import record_result, run_once

from repro.core.cache import PlacementCache, scoped_cache
from repro.experiments.runner import SweepSpec
from repro.experiments.runner import run_sweep
from repro.experiments.schemes import SCHEMES

FAST_SCHEMES = {k: v for k, v in SCHEMES.items() if k != "Optimal"}


def _panel_spec(**overrides):
    base = dict(
        chain_indices=(1, 2, 3),
        deltas=(0.5, 1.0, 1.5, 2.0),
        schemes=FAST_SCHEMES,
        measure=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_parallel_rows_byte_identical(benchmark, profiles):
    """jobs=4 must reproduce the serial rows exactly, in order."""
    spec = _panel_spec(profiles=profiles)

    def cold_parallel():
        with scoped_cache():  # workers forked here inherit no serial row
            return run_sweep(spec.with_jobs(4))

    with scoped_cache():
        serial = run_sweep(spec)
    parallel = run_once(benchmark, cold_parallel)
    assert parallel.results == serial.results
    assert [
        (r.scheme, r.delta) for r in parallel.results
    ] == [(r.scheme, r.delta) for r in serial.results]


def test_warm_cache_halves_panel_wall_clock(benchmark, profiles):
    """A warm placement cache must cut a repeated panel's time >= 2x."""
    spec = _panel_spec(profiles=profiles)

    def cold_then_warm():
        with scoped_cache(PlacementCache()) as cache:
            start = time.perf_counter()
            cold = run_sweep(spec)
            cold_s = time.perf_counter() - start

            start = time.perf_counter()
            warm = run_sweep(spec)
            warm_s = time.perf_counter() - start
        return cold, warm, cold_s, warm_s, cache.stats()

    cold, warm, cold_s, warm_s, stats = run_once(benchmark, cold_then_warm)

    cells = len(spec.cells())
    assert stats["misses"] == cells
    assert stats["hits"] == cells
    assert warm.results == cold.results
    assert cold_s >= 2 * warm_s, (
        f"warm cache only {cold_s / warm_s:.2f}x faster "
        f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s)"
    )

    lines = [
        "sweep engine: placement cache on repeated fig-2 panel "
        "(chains 1+2+3, 4 deltas, 5 schemes)",
        f"  grid cells      {cells}",
        f"  cold pass       {cold_s * 1e3:8.1f} ms "
        f"({stats['misses']} cache misses)",
        f"  warm pass       {warm_s * 1e3:8.1f} ms "
        f"({stats['hits']} cache hits)",
        f"  speedup         {cold_s / warm_s:8.2f}x (target >= 2x)",
    ]
    record_result("sweep_engine", "\n".join(lines))
