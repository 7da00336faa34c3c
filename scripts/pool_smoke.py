#!/usr/bin/env python
"""CI smoke test for the persistent dataplane worker runtime.

Runs the equivalent of ``repro traffic examples/specs/pop.lemur
--batch 64 --shards 2`` twice *in one process* — the regime the
persistent pool exists for — and asserts what the pool promises:

* both sharded phases run on the same live workers: one
  ``runtime.tasks`` task per shard per phase, ``runtime.pool.restarts``
  stays 0;
* both phases report exactly what the serial replay reports, byte for
  byte.

Run from the repo root:

    PYTHONPATH=src python scripts/pool_smoke.py
"""

import sys

from repro.obs import MetricsRegistry, scoped_registry
from repro.runtime.pool import shutdown_pool
from repro.sim.traffic import TrafficSpec, run_traffic

SPEC_PATH = "examples/specs/pop.lemur"
SHARDS = 2


def run_phase(spec_text: str, shards: int) -> str:
    return run_traffic(
        TrafficSpec(
            spec_text=spec_text,
            slos=((1.0, 20.0), (1.0, 20.0)),
            packets_per_chain=256,
            flows_per_chain=16,
            batch_size=64,
            shards=shards,
        ),
        registry=MetricsRegistry(),
    ).to_json()


def main() -> int:
    with open(SPEC_PATH) as fh:
        spec_text = fh.read()

    serial = run_phase(spec_text, 1)
    shutdown_pool()
    try:
        # the pool records into the process-default registry
        with scoped_registry() as default:
            phases = [run_phase(spec_text, SHARDS) for _ in range(2)]
            tasks = default.counter_value("runtime.tasks", kind="_run_shard")
            restarts = default.counter_value("runtime.pool.restarts")
    finally:
        shutdown_pool()
    print(f"shard tasks: {tasks}, worker restarts: {restarts}")

    if tasks != SHARDS * len(phases):
        print(f"FAIL: expected {SHARDS * len(phases)} shard tasks (one per "
              "shard per phase) — did the pooled path fall back?")
        return 1
    if restarts != 0:
        print("FAIL: the second phase did not reuse the first phase's "
              "live workers")
        return 1
    for index, sharded in enumerate(phases, 1):
        if sharded != serial:
            print(f"FAIL: sharded phase {index} differs from the serial "
                  "report")
            return 1
    print("OK: two sharded phases on the same workers, both byte-identical "
          "to the serial report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
