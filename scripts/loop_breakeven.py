#!/usr/bin/env python
"""Measure where the columnar dataplane loop starts to pay.

Prints the two tables behind ``repro.sim.traffic.COLUMNAR_MIN_BATCH``
(``docs/performance.md``, "Which loop runs"), the one behind the
crossover inside ``repro.sim.runtime._unit_draws``, and one for the
scalar loop's schedule on branchy chains. The first two time
one traffic phase — one batch per chain — with the selection pinned to
the scalar loop and
to the columnar loop, on a freshly deployed rack (*cold*: no hop probe, no
classified or traced flow — what every phase after a redeploy sees) and
again on the same rack (*warm*). Flow templates are synthesized before the
clock starts, as they are for a chain that survives a redeploy.

* batch 8 to 128 at 8 flows, on the racks of the benchmark's
  ``serve_churn`` and ``nic_fastpath`` workloads: where the loops cross;
* one signature a batch against one signature a packet, at batch 64 and
  4096 on the ``nic_fastpath`` rack: what a distinct signature costs
  (``flowscale_smallbatch``'s regime), as µs per extra signature;
* ``n`` cost draws from one ``random.Random``, ``n`` = 8 to 4096, by the
  per-draw loop and by one bulk ``getrandbits`` call, both ending in the
  float64 array the rack consumes: where ``_unit_draws`` should switch,
  beside where it does;
* scalar ``run`` on each Table-2 chain (chains 1-4 at delta = 0.5 on the
  paper testbed, 64 flows: the ``table2_stateful`` rack), batch 8 to
  4096, as µs per packet with the flows interleaved across the arms
  against the same packets grouped by service path: the schedule merges
  paths node by node, so the two should match at every size. Then the
  same for a branchy chain whose every hop is vector-safe
  (``BRANCHY_VECTOR``, alone on the paper testbed), scalar from batch 8
  and ``run_columns`` from batch 64: its two column runs meet on a server
  hop, so the columnar loop should not care about the order either.

    PYTHONPATH=src python scripts/loop_breakeven.py [--repeats N]
"""

import argparse
import gc
import random
import statistics
import time

import numpy as np

import repro.sim.traffic as traffic
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry
from repro.profiles.defaults import default_profiles
from repro.sim.columns import PacketColumns
from repro.sim.runtime import DeployedRack, _chain_packet, _unit_draws
from repro.sim.traffic import TrafficEngine, TrafficSpec
from repro.units import gbps

RACKS = {
    "serve_churn": (
        "chain base0: ACL -> Encrypt -> IPv4Fwd\n"
        "chain base1: BPF -> NAT -> IPv4Fwd\n",
        ((1000.0, 20000.0),) * 2, "multi-server", 8,
    ),
    "nic_fastpath": (
        "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
        "chain b: ACL -> Encrypt -> IPv4Fwd\n",
        ((1000.0, 39000.0),) * 2, "paper-smartnic", 8,
    ),
}
BATCHES = (8, 16, 32, 64, 128)
#: (rack, batch) cells of the signatures-per-batch axis: each runs with
#: one flow and with as many flows as packets
SIGNATURE_BATCHES = (("nic_fastpath", 64), ("nic_fastpath", 4096))
PINS = {"scalar": 10**9, "columnar": 1}
DRAWS = (8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 4096)
ORDER_BATCHES = (8, 64, 512, 4096)
#: packets per sample of the path-order table (at least one batch)
ORDER_PACKETS = 1024
ORDER_FLOWS = 64
#: the path-order table's vector-safe branchy chain
BRANCHY_VECTOR = "chain v: BPF -> [ACL, Tunnel] -> Encrypt -> IPv4Fwd"


def cells():
    """Every (rack, batch, flows) the tables need."""
    for rack, (_spec, _slos, _preset, flows) in RACKS.items():
        for batch in BATCHES:
            yield rack, batch, flows
    for rack, batch in SIGNATURE_BATCHES:
        yield rack, batch, 1
        yield rack, batch, batch


def phase_ms(engine: TrafficEngine, cursor: int, batch: int) -> float:
    # a phase pauses the cyclic collector; collect first, so the young
    # collection an earlier phase deferred is not timed here
    gc.collect()
    started = time.perf_counter()
    for cp in engine.placement.chains:
        engine.replay_batch(cp, cursor, batch)
    return (time.perf_counter() - started) * 1e3


def measure(repeats: int) -> dict:
    """(rack, batch, flows, loop, phase) -> median ms. Every repeat visits
    every cell once, so machine drift lands on all of them alike."""
    samples: dict = {}
    for repeat in range(repeats + 1):
        for rack, batch, flows in cells():
            spec_text, slos, preset, _flows = RACKS[rack]
            spec = TrafficSpec(spec_text=spec_text, slos=slos,
                               topology=topology_for(preset),
                               flows_per_chain=flows, batch_size=batch)
            for loop, pin in PINS.items():
                traffic.COLUMNAR_MIN_BATCH = pin
                engine = TrafficEngine.from_spec(
                    spec, registry=MetricsRegistry()
                )
                for cp in engine.placement.chains:
                    engine.synthesize_flows(cp)
                cold = phase_ms(engine, 0, batch)
                warm = phase_ms(engine, batch, batch)
                if repeat:  # the first round warms imports and memos
                    samples.setdefault(
                        (rack, batch, flows, loop, "cold"), []).append(cold)
                    samples.setdefault(
                        (rack, batch, flows, loop, "warm"), []).append(warm)
    return {key: statistics.median(values)
            for key, values in samples.items()}


def loop_draws(rng: random.Random, n: int) -> np.ndarray:
    rand = rng.random
    return np.asarray([rand() for _ in range(n)])


def bulk_draws(rng: random.Random, n: int) -> np.ndarray:
    """``_unit_draws``'s bulk branch, at any ``n``."""
    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8"
    )
    return (((words & 0xFFFFFFE0) << 21) + (words >> 38)) \
        * (1.0 / 9007199254740992.0)


def measure_draws(repeats: int) -> dict:
    """(n, "loop" | "bulk") -> median µs per call; the two alternate
    inside every repeat."""
    top = max(DRAWS)
    ours, theirs = random.Random("draws"), random.Random("draws")
    if bulk_draws(ours, top).tolist() \
            != np.asarray(_unit_draws(theirs, top)).tolist() \
            or ours.getstate() != theirs.getstate():
        raise SystemExit("bulk_draws no longer mirrors _unit_draws")
    samples: dict = {}
    for repeat in range(repeats + 1):
        for n in DRAWS:
            calls = max(8, top // n)
            for how, draw in (("loop", loop_draws), ("bulk", bulk_draws)):
                started = time.perf_counter()
                for _ in range(calls):
                    draw(ours, n)
                spent = (time.perf_counter() - started) / calls * 1e6
                if repeat:
                    samples.setdefault((n, how), []).append(spent)
    return {key: statistics.median(values)
            for key, values in samples.items()}


class _CountingRandom(random.Random):
    """Notes whether a caller took the bulk route."""

    bulk = False

    def getrandbits(self, k):
        self.bulk = True
        return super().getrandbits(k)


def helper_crossover() -> int:
    """The smallest ``n`` at which ``_unit_draws`` makes its one bulk
    call, found from outside."""
    for n in range(1, 2 * max(DRAWS)):
        rng = _CountingRandom(n)
        _unit_draws(rng, n)
        if rng.bulk:
            return n
    raise SystemExit("_unit_draws never draws in bulk")


def _rack(chains, profiles, topology):
    placement = heuristic_place(chains, topology, profiles)
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    return placement, DeployedRack(topology, artifacts, profiles,
                                   registry=MetricsRegistry())


def measure_order(repeats: int) -> dict:
    """(chain, loop, batch, "interleaved" | "grouped") -> median µs per
    packet of ``run`` (loop "scalar") or ``run_columns`` (loop "columnar")
    on a warm rack. A sample injects ``max(batch, ORDER_PACKETS)`` packets
    cycling the chain's flows; the grouped sample is the same batches with
    each one's packets stably sorted by service path. The two orders
    alternate inside every repeat, on the same rack."""
    profiles = default_profiles()
    topology = topology_for("paper-testbed").build()
    placement, rack = _rack(chains_with_delta([1, 2, 3, 4], 0.5),
                            profiles, topology)
    cases = [(rack, cp, "scalar", ORDER_BATCHES) for cp in placement.chains]
    placement, rack = _rack(
        chains_from_spec(BRANCHY_VECTOR,
                         slos=[SLO(t_min=gbps(0.5), t_max=gbps(30))]),
        profiles, topology)
    (cp,) = placement.chains
    cases += [(rack, cp, "scalar", ORDER_BATCHES),
              (rack, cp, "columnar", ORDER_BATCHES[1:])]
    orders = {}
    for rack, cp, loop, batches_of in cases:
        flows = [_chain_packet(cp.chain, i) for i in range(ORDER_FLOWS)]
        spi = [rack.classify(cp, flow).spi for flow in flows]
        for batch in batches_of:
            count = max(batch, ORDER_PACKETS)
            batches = [[i % ORDER_FLOWS for i in range(base, base + batch)]
                       for base in range(0, count, batch)]
            orders[cp.name, loop, batch, "interleaved"] = (
                rack, cp, flows, batches)
            orders[cp.name, loop, batch, "grouped"] = (rack, cp, flows, [
                sorted(sig, key=spi.__getitem__) for sig in batches
            ])
    samples: dict = {}
    for repeat in range(repeats + 1):
        for key, (rack, cp, flows, batches) in orders.items():
            spent = 0.0
            for sig in batches:
                if key[1] == "scalar":
                    packets = [flows[f].copy() for f in sig]
                    started = time.perf_counter()
                    rack.run(cp, packets)
                else:
                    columns = PacketColumns.for_flows(flows, sig)
                    started = time.perf_counter()
                    rack.run_columns(cp, columns)
                spent += time.perf_counter() - started
            if repeat:  # the first round warms the rack and its memos
                samples.setdefault(key, []).append(
                    spent * 1e6 / sum(map(len, batches)))
    return {key: statistics.median(values)
            for key, values in samples.items()}


def row(ms: dict, rack: str, batch: int, flows: int) -> str:
    return (f"| {ms[rack, batch, flows, 'scalar', 'cold']:.2f} "
            f"| {ms[rack, batch, flows, 'columnar', 'cold']:.2f} "
            f"| {ms[rack, batch, flows, 'scalar', 'warm']:.2f} "
            f"| {ms[rack, batch, flows, 'columnar', 'warm']:.2f} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args()
    default = traffic.COLUMNAR_MIN_BATCH
    try:
        ms = measure(args.repeats)
    finally:
        traffic.COLUMNAR_MIN_BATCH = default
    us = measure_draws(args.repeats)
    order = measure_order(args.repeats)
    print(f"median of {args.repeats} phases, ms per phase "
          f"(COLUMNAR_MIN_BATCH = {default})")
    print("| rack | batch | cold scalar | cold columnar | warm scalar "
          "| warm columnar | engine picks |")
    print("|---|---:|---:|---:|---:|---:|---|")
    for rack, (_spec, _slos, _preset, flows) in RACKS.items():
        for batch in BATCHES:
            picks = "columnar" if batch >= default else "scalar"
            print(f"| `{rack}` | {batch} {row(ms, rack, batch, flows)} "
                  f"{picks} |")
    print()
    print("signatures per batch: one flow, then one flow per packet; the "
          "last row of each pair is µs per extra signature (both chains)")
    print("| rack | batch | flows | cold scalar | cold columnar "
          "| warm scalar | warm columnar |")
    print("|---|---:|---:|---:|---:|---:|---:|")
    for rack, batch in SIGNATURE_BATCHES:
        chains = RACKS[rack][0].count("chain ")
        for flows in (1, batch):
            print(f"| `{rack}` | {batch} | {flows} "
                  f"{row(ms, rack, batch, flows)}")
        per_signature = " ".join(
            "| {:.1f} ".format(
                (ms[rack, batch, batch, loop, phase]
                 - ms[rack, batch, 1, loop, phase])
                * 1e3 / ((batch - 1) * chains))
            for phase in ("cold", "warm") for loop in PINS
        )
        print(f"| `{rack}` | {batch} | µs/signature {per_signature}|")
    print()
    switch = helper_crossover()
    lost = [n for n in DRAWS if us[n, "bulk"] >= us[n, "loop"]]
    wins_from = next((n for n in DRAWS if n > max(lost, default=0)), None)
    print(f"µs for n cost draws as a float64 array; bulk wins from "
          f"n = {wins_from} up here, _unit_draws switches at n = {switch}")
    print("| n | per-draw loop | one getrandbits call | _unit_draws takes |")
    print("|---:|---:|---:|---|")
    for n in DRAWS:
        print(f"| {n} | {us[n, 'loop']:.1f} | {us[n, 'bulk']:.1f} "
              f"| {'bulk' if n >= switch else 'loop'} |")
    print()
    print(f"µs per packet on a warm paper-testbed rack, {ORDER_FLOWS} "
          "flows: interleaved across arms against grouped by path (chains "
          "1-4: the Table-2 rack; v: BRANCHY_VECTOR alone)")
    print("| chain | loop | batch | interleaved | grouped "
          "| interleaved / grouped |")
    print("|---|---|---:|---:|---:|---:|")
    for chain, loop, batch, _order in order:
        if _order == "interleaved":
            mixed = order[chain, loop, batch, "interleaved"]
            grouped = order[chain, loop, batch, "grouped"]
            print(f"| {chain} | {loop} | {batch} | {mixed:.1f} "
                  f"| {grouped:.1f} | {mixed / grouped:.2f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
