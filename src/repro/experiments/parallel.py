"""Parallel experiment execution: fan a sweep grid over a process pool.

The evaluation grid (Fig. 2/3, §5.3) is a set of *independent*
(scheme, δ) cells: each one derives its chains, solves a placement, and
optionally measures the result on the simulated testbed. This module is
the execution substrate for that shape:

* :class:`SweepCell` — one picklable cell task;
* :func:`execute_cell` — the single computation both serial and parallel
  paths share, so results are byte-identical regardless of ``jobs``;
* :func:`run_cells` — runs cells inline or fans them out through
  :func:`~repro.runtime.pool.fan_out`, restores deterministic result
  ordering, and merges per-worker observability registries back into the
  parent's.

Each cell deep-copies its topology before solving, so scheme-side
mutations (failed devices, reserved cores) can never leak between cells —
in either execution mode.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.placement import Placement
from repro.hw.topology import Topology
from repro.obs import get_registry, scoped_registry
from repro.profiles.defaults import ProfileDatabase
from repro.runtime.pool import fan_out


@dataclass
class SweepCell:
    """One (scheme, δ) cell of an experiment grid, ready to execute.

    Everything a worker process needs is carried in the task (and must be
    picklable): the placement function by reference, the *base* topology
    (deep-copied before use), the profile database, and the measurement
    options.
    """

    index: int
    chain_indices: Tuple[int, ...]
    delta: float
    scheme: str
    place_fn: Callable[..., Placement]
    topology: Topology
    profiles: ProfileDatabase
    packet_bits: int
    measure: bool = True
    measure_seed: int = 23


@dataclass
class CellOutcome:
    """A finished cell: its result plus execution metadata."""

    index: int
    result: "ExperimentResult"
    seconds: float
    worker: int
    metrics: Optional[dict] = None  # obs dump_state() from a pooled worker


def execute_cell(cell: SweepCell) -> "ExperimentResult":
    """Run one grid cell: derive chains, place, measure.

    This is the *only* implementation of a cell — the serial loop and the
    pool workers both call it, which is what guarantees parallel runs
    reproduce serial results exactly.
    """
    from repro.experiments.chains import chains_with_delta
    from repro.experiments.runner import ExperimentResult

    registry = get_registry()
    topology = copy.deepcopy(cell.topology)
    chains = chains_with_delta(
        cell.chain_indices, cell.delta,
        profiles=cell.profiles, packet_bits=cell.packet_bits,
    )
    aggregate_tmin = sum(c.slo.t_min for c in chains)

    placement = cell.place_fn(
        chains, topology, cell.profiles, packet_bits=cell.packet_bits,
    )

    result = ExperimentResult(
        scheme=cell.scheme,
        delta=cell.delta,
        feasible=placement.feasible,
        aggregate_tmin_mbps=aggregate_tmin,
        infeasible_reason=placement.infeasible_reason,
    )
    if placement.feasible:
        result.predicted_mbps = placement.aggregate_rate
        result.marginal_mbps = placement.objective_mbps
        if cell.measure:
            result.measured_mbps = _measure_cell(
                placement, topology, cell.profiles,
                cell.packet_bits, cell.measure_seed,
            )
        else:
            result.measured_mbps = result.predicted_mbps
    registry.counter("sweep.cells", scheme=cell.scheme,
                     feasible=str(placement.feasible).lower()).inc()
    return result


def _measure_cell(
    placement: Placement,
    topology: Topology,
    profiles: ProfileDatabase,
    packet_bits: int,
    seed: int,
) -> float:
    """Execute the placement on the simulated testbed (lazy import)."""
    from repro.sim.testbed import TestbedSimulator

    sim = TestbedSimulator(
        topology=topology, profiles=profiles,
        packet_bits=packet_bits, seed=seed,
    )
    report = sim.run(placement)
    return report.aggregate_throughput_mbps


def _timed_execute(cell: SweepCell) -> CellOutcome:
    """Execute a cell and record its wall-clock into the ambient registry."""
    start = time.perf_counter()
    result = execute_cell(cell)
    seconds = time.perf_counter() - start
    get_registry().histogram(
        "sweep.cell.seconds", scheme=cell.scheme
    ).observe(seconds)
    return CellOutcome(
        index=cell.index, result=result, seconds=seconds,
        worker=os.getpid(),
    )


def _cell_worker(cell: SweepCell) -> CellOutcome:
    """Pool entry point: run one cell under a fresh per-worker registry.

    The worker's instrumentation (placer timings, LP solve counts,
    dataplane stats) lands in a scoped registry whose state is shipped
    back for the parent to merge — nothing recorded in a worker is lost
    to process isolation.
    """
    with scoped_registry() as registry:
        outcome = _timed_execute(cell)
        outcome.metrics = registry.dump_state()
    return outcome


def run_cells(
    cells: Sequence[SweepCell], jobs: int = 1
) -> List["ExperimentResult"]:
    """Execute a grid of cells, serially or over a process pool.

    Results come back in cell-index order regardless of completion order,
    and per-worker metrics are merged into the parent registry in that
    same deterministic order. ``jobs > 1`` fans the cells out through
    :func:`~repro.runtime.pool.fan_out`; a grid that is not picklable
    (lambda schemes, an ad-hoc topology factory) or a dead worker warns
    and runs in-process instead.
    """
    registry = get_registry()
    if jobs <= 1:
        outcomes = [_timed_execute(cell) for cell in cells]
    else:
        outcomes = fan_out(_cell_worker, cells, workers=jobs,
                           what="sweep grid")
    outcomes.sort(key=lambda o: o.index)

    per_worker_seconds: Dict[int, float] = {}
    for outcome in outcomes:
        if outcome.metrics is not None:
            registry.merge_state(outcome.metrics)
        per_worker_seconds[outcome.worker] = (
            per_worker_seconds.get(outcome.worker, 0.0) + outcome.seconds
        )
    for worker, seconds in sorted(per_worker_seconds.items()):
        registry.histogram(
            "sweep.worker.seconds", worker=str(worker)
        ).observe(seconds)
    registry.counter(
        "sweep.runs", mode="parallel" if jobs > 1 else "serial"
    ).inc()
    return [outcome.result for outcome in outcomes]
