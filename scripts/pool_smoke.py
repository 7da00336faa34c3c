#!/usr/bin/env python
"""CI smoke test for the persistent dataplane worker runtime.

Runs the equivalent of ``repro traffic examples/specs/pop.lemur
--vectorized --shards 2`` twice *in one process* — the regime the
persistent pool exists for — and asserts the warm-rack contract:

* phase 1 deploys its racks cold (``runtime.rack_builds{mode=cold}``);
* phase 2 finds them warm (``runtime.rack_builds{mode=warm}``) because
  the pool, its workers, and their cached racks survived the first run;
* both phases report byte-identical delivery outcomes.

Run from the repo root:

    PYTHONPATH=src python scripts/pool_smoke.py
"""

import json
import sys

from repro.obs import MetricsRegistry
from repro.runtime.pool import shutdown_pool
from repro.sim.traffic import TrafficSpec, run_traffic

SPEC_PATH = "examples/specs/pop.lemur"


def run_phase(spec_text: str):
    registry = MetricsRegistry()
    report = run_traffic(
        TrafficSpec(
            spec_text=spec_text,
            slos=((1.0, 20.0), (1.0, 20.0)),
            packets_per_chain=256,
            flows_per_chain=16,
            batch_size=64,
            vectorized=True,
            shards=2,
        ),
        registry=registry,
    )
    builds = {
        counter["labels"]["mode"]: counter["value"]
        for counter in registry.snapshot()["counters"]
        if counter["name"] == "runtime.rack_builds"
    }
    return report.to_json(), builds


def main() -> int:
    with open(SPEC_PATH) as fh:
        spec_text = fh.read()

    shutdown_pool()
    try:
        first, first_builds = run_phase(spec_text)
        print(f"phase 1 rack builds: {first_builds}")
        second, second_builds = run_phase(spec_text)
        print(f"phase 2 rack builds: {second_builds}")
    finally:
        shutdown_pool()

    if first_builds.get("cold", 0) < 1:
        print("FAIL: phase 1 never deployed a rack cold "
              "(did the pooled path fall back?)")
        return 1
    if second_builds.get("warm", 0) < 1:
        print("FAIL: phase 2 reports no warm rack hit — the persistent "
              "pool did not reuse phase 1's racks")
        return 1
    if second_builds.get("cold", 0) != 0:
        print("FAIL: phase 2 deployed a rack cold; expected warm reuse "
              f"only, got {second_builds}")
        return 1
    if json.dumps(first, sort_keys=True) != json.dumps(second,
                                                       sort_keys=True):
        print("FAIL: phases disagree on delivery outcomes")
        return 1
    print("OK: second phase reused warm racks with identical reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
