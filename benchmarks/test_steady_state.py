"""Steady-state phase latency: persistent worker runtime vs a single process.

A long-running control plane (``repro serve``) replays many *short*
traffic phases against the same deployed chains — the regime where any
fan-out is dominated by the fixed costs it pays per phase. The persistent
:class:`~repro.runtime.pool.WorkerPool` keeps its workers alive across
phases; each phase ships the ``(topology, artifacts, profiles,
placement)`` bundle and each worker builds its rack from it.

This benchmark replays ``PHASES`` consecutive short phases through the
same :class:`~repro.sim.traffic.TrafficEngine` two ways — single process
(reference) and sharded over the persistent pool — and records per-phase
latency, so the table shows what a dispatch still costs at this size.
The assertion is about sameness, not speed: byte-identical delivery
outcomes phase for phase. (Where sharding starts to pay — a serial
replay worth ≈0.15 s or more — is tabulated in ``docs/performance.md``.)

``STEADY_BENCH_PHASES`` overrides the phase count.
"""

import os
import time

from conftest import record_result, run_once

from repro.obs import MetricsRegistry
from repro.runtime.pool import shutdown_pool
from repro.sim.traffic import TrafficEngine, TrafficSpec

#: two independent chains, one per shard — phases small enough that the
#: per-phase fixed costs, not the replay itself, dominate.
SPEC = "\n".join([
    "chain c1: ACL -> NAT",
    "chain c2: NAT -> IPv4Fwd",
])
SLOS = ((100.0, 200.0), (100.0, 200.0))
PHASES = int(os.environ.get("STEADY_BENCH_PHASES", "20"))
PACKETS = 8
FLOWS = 4
BATCH = 32
SHARDS = 2


def _phase_train(shards):
    """Replay ``PHASES`` short phases; returns (reports, wall)."""
    shutdown_pool()
    engine = TrafficEngine.from_spec(
        TrafficSpec(
            spec_text=SPEC, slos=SLOS, packets_per_chain=PACKETS,
            flows_per_chain=FLOWS, batch_size=BATCH,
            shards=shards,
        ),
        registry=MetricsRegistry(),
    )
    reports = []
    started = time.perf_counter()
    for _phase in range(PHASES):
        reports.append(engine.run(packets_per_chain=PACKETS))
    wall = time.perf_counter() - started
    shutdown_pool()
    return [report.to_json() for report in reports], wall


def test_steady_state_phase_latency(benchmark):
    def run():
        return _phase_train(shards=1), _phase_train(shards=SHARDS)

    serial, pooled = run_once(benchmark, run)
    serial_reports, serial_wall = serial
    pooled_reports, pooled_wall = pooled

    lines = [
        "steady-state phase latency — persistent worker runtime vs "
        "a single process",
        f"{PHASES} consecutive phases, {len(SLOS)} chains x "
        f"{PACKETS} packets, {SHARDS} shards",
        "",
        f"{'mode':24s} {'total':>9s} {'per phase':>11s} {'vs serial':>11s}",
        f"{'single process':24s} {serial_wall:8.3f}s "
        f"{1000 * serial_wall / PHASES:9.2f}ms {'1.00x':>11s}",
        f"{'persistent pool':24s} {pooled_wall:8.3f}s "
        f"{1000 * pooled_wall / PHASES:9.2f}ms "
        f"{serial_wall / pooled_wall:10.2f}x",
    ]
    record_result("steady_state", "\n".join(lines))

    # identical delivery outcomes, phase for phase
    assert pooled_reports == serial_reports
