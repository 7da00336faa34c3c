#!/usr/bin/env python
"""Measure where the columnar dataplane loop starts to pay.

Prints the two tables behind ``repro.sim.traffic.COLUMNAR_MIN_BATCH``
(``docs/performance.md``, "Which loop runs"). Both time one traffic phase
— one batch per chain — with the selection pinned to the scalar loop and
to the columnar loop, on a freshly deployed rack (*cold*: no hop probe, no
classified or traced flow — what every phase after a redeploy sees) and
again on the same rack (*warm*). Flow templates are synthesized before the
clock starts, as they are for a chain that survives a redeploy.

* batch 8 to 128 at 8 flows, on the racks of the benchmark's
  ``serve_churn`` and ``nic_fastpath`` workloads: where the loops cross;
* one signature a batch against one signature a packet, at batch 64 and
  4096 on the ``nic_fastpath`` rack: what a distinct signature costs
  (``flowscale_smallbatch``'s regime), as µs per extra signature.

    PYTHONPATH=src python scripts/loop_breakeven.py [--repeats N]
"""

import argparse
import statistics
import time

import repro.sim.traffic as traffic
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.traffic import TrafficEngine, TrafficSpec

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


def cells():
    """Every (rack, batch, flows) the tables need."""
    for rack, (_spec, _slos, _preset, flows) in RACKS.items():
        for batch in BATCHES:
            yield rack, batch, flows
    for rack, batch in SIGNATURE_BATCHES:
        yield rack, batch, 1
        yield rack, batch, batch


def phase_ms(engine: TrafficEngine, cursor: int, batch: int) -> float:
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
