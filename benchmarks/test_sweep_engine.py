"""Sweep engine acceptance: parallel determinism.

Dispatching the Fig-2 grid over a process pool (``jobs=4``) produces
*byte-identical* ``ExperimentResult`` rows, in the same order, as the
serial loop — ``execute_cell`` is the single shared implementation.
"""

from conftest import run_once

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
    serial = run_sweep(spec)
    parallel = run_once(benchmark, lambda: run_sweep(spec.with_jobs(4)))
    assert parallel.results == serial.results
    assert [
        (r.scheme, r.delta) for r in parallel.results
    ] == [(r.scheme, r.delta) for r in serial.results]
