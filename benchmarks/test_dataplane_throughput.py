"""Dataplane throughput: the scalar loop per packet and batched, and the
traffic engine's columnar loop.

Deploys a Fig-2-style testbed (two BESS servers + SmartNIC behind the
ToR) and pushes the same high-volume flow set through the rack three
ways:

* **per-packet** — ``DeployedRack.run`` with batches of one;
* **batched** — ``DeployedRack.run`` with ``BATCH``-packet batches
  (classification, hop resolution and observability amortized across
  the batch);
* **engine** — :class:`~repro.sim.traffic.TrafficEngine` at batch 4096,
  which takes the columnar ``DeployedRack.run_columns`` loop
  (structure-of-arrays batches, whole-array hop replay).

All paths are behaviourally identical
(``tests/sim/test_batch_equivalence.py`` and
``tests/sim/test_loop_selection.py`` enforce bit-identical results);
this benchmark records how much cheaper each tier is per packet.
Reproduction target: the engine >= 10x the batched scalar loop on the
same machine.

``DATAPLANE_BENCH_PACKETS`` overrides the packet budget (CI smoke runs
use a small one).
"""

import os
import time

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.sim.traffic import TrafficEngine
from repro.units import gbps

#: The chain and testbed mirror Fig. 2's SmartNIC panel: an offloadable
#: chain pinned to the NIC by its throughput SLO.
SPEC = "chain a: BPF -> FastEncrypt -> IPv4Fwd"
SLO_BOUNDS = SLO(t_min=gbps(1), t_max=gbps(39))
FLOWS = 64
BATCH = 256
PACKETS = int(os.environ.get("DATAPLANE_BENCH_PACKETS", "4000"))
#: Untimed prelude so small CI budgets measure steady state, not the
#: one-off cache/table warmup every path pays on its first packets.
WARMUP = min(256, max(BATCH, PACKETS // 4))
#: The columnar loop amortises per-hop work over the whole batch, so the
#: engine runs a 10x packet budget in wide batches to measure steady state.
ENGINE_PACKETS = 10 * PACKETS
ENGINE_BATCH = 4096


def _deploy():
    profiles = default_profiles()
    topology = topology_for("paper-testbed", smartnic=True).build()
    chains = chains_from_spec(SPEC, slos=[SLO_BOUNDS])
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    rack = DeployedRack(topology, artifacts, profiles)
    return rack, placement


def _measure_serial_pps():
    rack, placement = _deploy()
    cp = placement.chains[0]
    for i in range(WARMUP):
        rack.run(cp, [_chain_packet(cp.chain, i % FLOWS)])
    pkts = [_chain_packet(cp.chain, i % FLOWS) for i in range(PACKETS)]
    t0 = time.perf_counter()
    for p in pkts:
        rack.run(cp, [p])
    return PACKETS / (time.perf_counter() - t0)


def _measure_batched():
    """(pps, delivered, injected) of ``rack.run`` over BATCH-packet batches."""
    rack, placement = _deploy()
    cp = placement.chains[0]
    rack.run(cp, [_chain_packet(cp.chain, i % FLOWS) for i in range(WARMUP)])
    batches = [
        [_chain_packet(cp.chain, i % FLOWS)
         for i in range(start, min(start + BATCH, PACKETS))]
        for start in range(0, PACKETS, BATCH)
    ]
    t0 = time.perf_counter()
    delivered = sum(rack.run(cp, batch).delivered for batch in batches)
    return PACKETS / (time.perf_counter() - t0), delivered, PACKETS


def _measure_engine():
    rack, placement = _deploy()
    engine = TrafficEngine(
        rack, placement, flows_per_chain=FLOWS, batch_size=ENGINE_BATCH
    )
    engine.run(packets_per_chain=ENGINE_BATCH)
    report = engine.run(packets_per_chain=ENGINE_PACKETS)
    assert rack.obs.counter_value("traffic.batches", loop="scalar") == 0
    return report


def test_dataplane_throughput(benchmark):
    def run():
        return _measure_serial_pps(), _measure_batched(), _measure_engine()

    serial_pps, batched, report = run_once(benchmark, run)
    batched_pps, delivered, injected = batched
    engine_pps = report.achieved_pps
    chain = report.chains[0]

    lines = [
        "dataplane throughput — Fig-2-style testbed (SmartNIC), "
        f"chain {SPEC.split(':')[0].split()[1]!r}: "
        f"{SPEC.split(':', 1)[1].strip()}",
        f"packets={PACKETS} flows={FLOWS} batch={BATCH}",
        "",
        f"{'path':28s} {'pps':>10s} {'vs per-packet':>14s}",
        f"{'rack.run per packet':28s} {serial_pps:10.0f} {'1.00x':>14s}",
        f"{'rack.run batched':28s} {batched_pps:10.0f} "
        f"{batched_pps / serial_pps:13.2f}x",
        f"{'engine at batch ' + str(ENGINE_BATCH):28s} {engine_pps:10.0f} "
        f"{engine_pps / serial_pps:13.2f}x",
        "",
        f"engine: packets={ENGINE_PACKETS} batch={ENGINE_BATCH} (columnar "
        f"loop), {engine_pps / batched_pps:.2f}x the batched scalar loop",
        f"delivered {chain.delivered}/{chain.injected} "
        f"({100 * chain.delivered_fraction:.1f}%), "
        f"assigned rate {chain.assigned_mbps:.0f} Mbps",
    ]
    record_result("dataplane_throughput", "\n".join(lines))

    # every injected packet must come out the other end, on every tier
    assert delivered == injected
    assert chain.delivered == chain.injected == ENGINE_PACKETS

    # the batched path must beat the per-packet path outright
    assert batched_pps > 1.25 * serial_pps

    # reproduction target: the columnar loop is >= 10x the batched scalar
    # loop (same machine, same run)
    assert engine_pps >= 10 * batched_pps
