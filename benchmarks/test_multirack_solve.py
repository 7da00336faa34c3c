"""Hierarchical fabric solve vs a monolithic flat solve (multi-rack).

The comparison the hierarchical placer exists for: place ``6 x R``
chains on an R-rack star fabric via partition-then-place, against a
*monolithic* alternative — one flat rack given the same aggregate
server capacity (R servers behind a single ToR) and all chains in one
``Placer.solve``.

Two effects, both recorded:

* **time** — the hierarchical solve decomposes into R small per-rack
  problems and scales roughly linearly with racks, while the flat
  heuristic's coalescing search over one giant rack grows superlinearly
  (an order of magnitude slower by 8 racks);
* **feasibility** — past a few racks the monolithic rack goes
  infeasible outright: a single PISA switch's stages and ports cannot
  host the whole fabric's chains no matter how many servers stand
  behind it, which is the capacity argument for multi-rack placement.
"""

import time

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.hierarchy import MultiRackPlacer
from repro.core.placer import Placer, PlacementRequest
from repro.hw.spec import RackSpec, TopologySpec

RACK_COUNTS = (2, 4, 6, 8)
CHAINS_PER_RACK = 6


def _chains(n):
    spec = "\n".join(
        f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd"
        for i in range(n)
    )
    return chains_from_spec(
        spec,
        slos=[SLO(t_min=1000.0, t_max=9000.0, d_max=400.0)
              for _ in range(n)],
    )


def _measure(racks):
    chains = _chains(CHAINS_PER_RACK * racks)

    fabric = TopologySpec.star(racks).build()
    started = time.perf_counter()
    hier = MultiRackPlacer(fabric=fabric).solve(
        PlacementRequest.multi_rack(chains=chains)
    )
    hier_seconds = time.perf_counter() - started

    flat_topology = TopologySpec(
        racks=(RackSpec(servers=racks),)
    ).build()
    started = time.perf_counter()
    flat = Placer(topology=flat_topology).solve(
        PlacementRequest(chains=chains)
    )
    flat_seconds = time.perf_counter() - started

    return {
        "racks": racks,
        "chains": CHAINS_PER_RACK * racks,
        "hier_seconds": hier_seconds,
        "hier_feasible": hier.placement.feasible,
        "flat_seconds": flat_seconds,
        "flat_feasible": flat.placement.feasible,
    }


def test_hierarchical_beats_monolithic_flat_solve(benchmark):
    results = run_once(
        benchmark, lambda: [_measure(racks) for racks in RACK_COUNTS]
    )

    rows = []
    for entry in results:
        speedup = entry["flat_seconds"] / entry["hier_seconds"]
        rows.append(
            f"racks={entry['racks']} chains={entry['chains']:3d}  "
            f"hierarchical={entry['hier_seconds'] * 1e3:8.1f} ms "
            f"(feasible={entry['hier_feasible']})  "
            f"flat={entry['flat_seconds'] * 1e3:8.1f} ms "
            f"(feasible={entry['flat_feasible']})  "
            f"speedup={speedup:5.1f}x"
        )
    record_result("multirack_solve", "\n".join(rows))

    # the fabric admits every scale
    assert all(entry["hier_feasible"] for entry in results)
    # one ToR stops being enough: the monolithic rack goes infeasible
    assert not results[-1]["flat_feasible"]
    # and even while failing, the flat search is much slower at scale
    largest = results[-1]
    assert largest["flat_seconds"] > 3.0 * largest["hier_seconds"]
