#!/usr/bin/env python
"""CI smoke test for the multi-rack fabric.

Drives the proven two-rack lifecycle recipe end to end against
``AdmissionCore`` and asserts every fabric-only behaviour in one
seeded, deterministic run:

* bootstrap spills the 6-chain set across both racks;
* two more arrivals fill the ingress rack to its true capacity;
* the next arrival **spills** to the satellite rack;
* scaling an ingress chain past what the rack can absorb **migrates**
  it (decision mode ``migrate:r0->r1``);
* a steady traffic phase meets every rate and latency SLO, with remote
  chains visibly paying the 100 µs inter-rack RTT;
* the final chain set is **infeasible on a single rack** — the fabric
  holds strictly more than one rack can.

Writes a JSON document (``--out``) for CI artifact upload.

Run from the repo root:

    PYTHONPATH=src python scripts/multirack_smoke.py --out report.json
"""

import argparse
import json
import sys

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.placer import Placer, PlacementRequest
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.admission import AdmissionCore, ChainEvent
from repro.sim.lifecycle import LifecycleSpec

RTT_US = 100.0  # two-rack preset: 2 x 50 µs one-way


def _spec_text(n):
    return "\n".join(
        f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(n)
    )


def _chains(n, t_min=4000.0):
    return chains_from_spec(
        _spec_text(n), slos=[SLO(t_min=t_min, t_max=9000.0, d_max=400.0)
                             for _ in range(n)]
    )


def _arrive(name, at):
    return ChainEvent(
        at=at, action="arrive", chain=name,
        spec=f"chain {name}: ACL(rules=64) -> Encrypt -> IPv4Fwd",
        t_min_mbps=4000.0, t_max_mbps=9000.0, d_max_us=400.0,
    )


def check(ok, label, detail=""):
    if ok:
        print(f"ok: {label}")
        return 0
    print(f"FAIL: {label}" + (f" — {detail}" if detail else ""))
    return 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="multirack-report.json")
    args = parser.parse_args()

    failures = 0
    registry = MetricsRegistry()
    core = AdmissionCore(
        LifecycleSpec(
            spec_text=_spec_text(6),
            slos=((4000.0, 9000.0, 400.0),) * 6,
            topology=topology_for("two-rack"),
            flows_per_chain=8, batch_size=16, seed=7,
        ),
        registry=registry,
    )
    core.bootstrap()
    failures += check(
        set(core.assignment.values()) == {"r0", "r1"},
        "bootstrap spills the 6-chain set across both racks",
        f"assignment={core.assignment}",
    )

    # fill r0 to its true capacity (7 chains of this shape)
    decisions = []
    for tick, name in enumerate(("c6", "c7"), start=1):
        decision = core.process(_arrive(name, at=tick))
        decisions.append((name, decision))
        failures += check(
            decision.accepted and core.assignment[name] == "r0",
            f"arrival {name} lands on the ingress rack",
            decision.reason,
        )

    spill = core.process(_arrive("c8", at=3))
    decisions.append(("c8", spill))
    failures += check(
        spill.accepted and core.assignment["c8"] == "r1",
        "arrival past ingress capacity spills to r1",
        spill.reason,
    )
    failures += check(
        core.obs.counter_value("lifecycle.spills") >= 1,
        "lifecycle.spills recorded the spill",
    )

    migrate = core.process(ChainEvent(
        at=4, action="scale", chain="c1", t_min_mbps=12000.0,
    ))
    decisions.append(("c1", migrate))
    failures += check(
        migrate.accepted and migrate.mode == "migrate:r0->r1"
        and core.assignment["c1"] == "r1",
        "scaling c1 past r0's headroom migrates it to r1",
        f"mode={migrate.mode} reason={migrate.reason}",
    )
    failures += check(
        core.obs.counter_value("lifecycle.migrations") == 1,
        "lifecycle.migrations recorded the move",
    )

    phase = core.run_phase("steady", 96, index=0)
    rows = sorted(phase.chains, key=lambda row: row.chain_name)
    misses = [row.chain_name for row in rows if not phase.slo_met(row)]
    failures += check(
        not misses, "every chain meets rate + latency SLOs in steady state",
        f"violations={misses}",
    )
    remote = [row for row in rows if core.assignment[row.chain_name] == "r1"]
    failures += check(
        remote and all(row.latency_p99_us >= RTT_US for row in remote),
        "remote chains visibly pay the inter-rack RTT",
        f"remote p99s={[(r.chain_name, r.latency_p99_us) for r in remote]}",
    )
    failures += check(
        all(row.latency_slo_us == 400.0 for row in rows),
        "phase rows restore the end-to-end d_max",
    )

    # the headline: this chain set does not fit a single paper rack
    final = _chains(9)
    flat = Placer().solve(PlacementRequest(chains=final)).placement
    failures += check(
        not flat.feasible,
        "the fabric's final 9-chain set is infeasible on one rack",
        "flat solve unexpectedly feasible",
    )

    payload = {
        "assignment": dict(sorted(core.assignment.items())),
        "decisions": [
            {"chain": name, "accepted": d.accepted, "mode": d.mode,
             "reason": d.reason}
            for name, d in decisions
        ],
        "spills": core.obs.counter_value("lifecycle.spills"),
        "migrations": core.obs.counter_value("lifecycle.migrations"),
        "phase": [
            {"chain": row.chain_name,
             "injected": row.injected,
             "delivered": row.delivered,
             "delivered_mbps": round(row.delivered_mbps, 3),
             "latency_p99_us": round(row.latency_p99_us, 3),
             "latency_slo_us": row.latency_slo_us,
             "slo_met": phase.slo_met(row)}
            for row in rows
        ],
        "flat_solve_feasible": flat.feasible,
        "state_digest": core.state_digest(),
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"report written to {args.out}")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("OK: fabric spill, migration, SLO compliance, and "
          "single-rack infeasibility all verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
