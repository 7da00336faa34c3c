#!/usr/bin/env python
"""Measure what an admission decision costs.

For racks running 4, 8, 16, 32 and 64 ``ACL(rules=64) -> Encrypt ->
IPv4Fwd`` chains, placed cold on a rack with spare cores, times three
incremental decisions (``Placer.solve`` with the running placement as
its base): one scale, which moves the first chain's t_min, one
departure of the last chain, and one arrival of a chain with the same
body under a new name (a fresh name per timed repeat). Prints, per size
and decision, the median decision time, the subgroup rate evaluations
the decision makes (calls of ``repro.core.rates.subgroup_rate_mbps``,
which every rate estimate goes through), its grants (cores given above
one per subgroup), and its P4 fragment lookups
(``p4c.compile.lookups{unit="fragment"}``) with how many of them were
fresh lowerings (``result="miss"``) and renamed body templates
(``result="renamed"``).

Core allocation re-evaluates a subgroup only when it is given a core,
so a scale or departure costs about one evaluation per subgroup plus
one per grant. ``--check`` exits 1 when one makes more than
2 × (subgroups + grants), or lowers or renames a fragment: the rack's
fragments are memoized. It also exits 1 when the arrival lowers a
fragment (the rack runs its body) or looks up more than its own: the
rack's program is memoized and extended by the arriving chain.

A second table is one cold solve of the paper's Table-2 chains 1–4 on
the ``paper-testbed`` rack (compile memo cleared first): its median
time, how many chain analyses it runs (calls of ``analyze_chain``
through ``repro.core.pipeline`` or ``repro.core.rates``) and over how
many distinct (chain, assignment) pairs. The heuristic's candidates
share one analysis per pair, so ``--check`` also exits 1 when the solve
analyzes a pair twice.

    PYTHONPATH=src python scripts/decision_cost.py [--repeats N] [--check]
"""

import argparse
import statistics
import time
from unittest import mock

from repro.chain.graph import chains_with_slos
from repro.core import pipeline, rates
from repro.core.placer import Placer, PlacementRequest
from repro.experiments.chains import canonical_chain
from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry, scoped_registry
from repro.p4c.compiler import clear_compile_memo
from repro.hw.pisa import PISASwitch
from repro.hw.server import NIC, CPUSocket, Server
from repro.hw.topology import Topology
from repro.units import gbps

SIZES = (4, 8, 16, 32, 64)
BODY = "ACL(rules=64) -> Encrypt -> IPv4Fwd"
#: Mbps: each chain needs one Encrypt core for t_min and takes up to
#: four for t_max, so the spend step has work at every size
T_MIN, T_MAX = 1000.0, 9000.0


def rack(chains: int) -> Topology:
    """One server of 16 cores per 4 chains: the floor takes a core per
    chain and leaves 11 per server to spend."""
    servers = [
        Server(name=f"server{index}", sockets=[CPUSocket(0, cores=16)],
               nics=[NIC(rate_mbps=gbps(100))])
        for index in range(max(1, chains // 4))
    ]
    return Topology(switch=PISASwitch(num_stages=64), servers=servers)


def decisions(chains: int):
    """The placer, and per decision a function from a repeat's number
    to its request (the running placement is the base)."""
    spec = "".join(f"chain c{index}: {BODY}\n" for index in range(chains))
    placer = Placer(topology=rack(chains))
    running = chains_with_slos(spec, ((T_MIN, T_MAX),) * chains)
    base = placer.solve(PlacementRequest(chains=running)).placement
    if not base.feasible:
        raise SystemExit(f"{chains} chains: {base.infeasible_reason}")
    first = running[0]
    scaled = [first.with_slo(first.slo.with_tmin(2 * T_MIN))] + running[1:]
    scale = PlacementRequest(chains=scaled, base_placement=base)
    depart = PlacementRequest(chains=running[:-1], base_placement=base)

    def arrive(repeat: int) -> PlacementRequest:
        arriving = chains_with_slos(f"chain new{chains}x{repeat}: {BODY}",
                                    ((T_MIN, T_MAX),))
        return PlacementRequest(chains=running + arriving,
                                base_placement=base)

    return placer, {
        "scale": lambda repeat: scale,
        "depart": lambda repeat: depart,
        "arrive": arrive,
    }


def fragment_lookups(registry: MetricsRegistry, result: str) -> int:
    return registry.counter("p4c.compile.lookups", unit="fragment",
                            result=result).value


def measure(placer: Placer, request, repeats: int):
    """The first decision counted — its subgroups, rate evaluations,
    grants, and fragment lookups with the lowerings and renames among
    them — then the median ms of ``repeats`` more."""
    calls = []
    real = rates.subgroup_rate_mbps
    with mock.patch.object(
        rates, "subgroup_rate_mbps",
        lambda *args, **kwargs: calls.append(None) or real(*args, **kwargs),
    ), scoped_registry(MetricsRegistry()) as registry:
        placement = placer.solve(request(0)).placement
    if not placement.feasible:
        raise SystemExit(f"decision rejected: {placement.infeasible_reason}")
    seconds = []
    for repeat in range(1, repeats + 1):
        start = time.perf_counter()
        placer.solve(request(repeat))
        seconds.append(time.perf_counter() - start)
    subgroups = [sg for cp in placement.chains for sg in cp.subgroups]
    grants = sum(sg.cores - 1 for sg in subgroups)
    lowered = fragment_lookups(registry, "miss")
    renamed = fragment_lookups(registry, "renamed")
    lookups = lowered + renamed + fragment_lookups(registry, "hit")
    return (statistics.median(seconds) * 1e3, len(subgroups), len(calls),
            grants, lookups, lowered, renamed)


def cold_table2(repeats: int):
    """Median ms of a cold Table-2 solve, its analyses and the distinct
    (chain, assignment) pairs they cover."""
    placer = Placer(topology=topology_for("paper-testbed").build())
    request = PlacementRequest(
        chains=[canonical_chain(index) for index in (1, 2, 3, 4)])
    seconds = []
    for _ in range(repeats):
        clear_compile_memo()
        start = time.perf_counter()
        placer.solve(request)
        seconds.append(time.perf_counter() - start)
    pairs = []
    real = pipeline.analyze_chain

    def counted(chain, assignment, *args, **kwargs):
        pairs.append((chain.name, tuple(assignment.items())))
        return real(chain, assignment, *args, **kwargs)

    clear_compile_memo()
    with mock.patch.object(pipeline, "analyze_chain", counted), \
            mock.patch.object(rates, "analyze_chain", counted):
        placement = placer.solve(request).placement
    clear_compile_memo()
    if not placement.feasible:
        raise SystemExit(f"Table-2 solve rejected: "
                         f"{placement.infeasible_reason}")
    return statistics.median(seconds) * 1e3, len(pairs), len(set(pairs))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a scale or departure makes more "
                             "than 2 x (subgroups + grants) rate "
                             "evaluations or lowers or renames a "
                             "fragment, or an arrival lowers one or looks "
                             "up more than its own")
    args = parser.parse_args()
    print(f"`{BODY}` chains at t_min {T_MIN:.0f} / t_max {T_MAX:.0f} Mbps, "
          f"one 16-core server per 4 chains; median of {args.repeats} "
          "decisions")
    print("| chains | decision | subgroups | decision ms | rate evaluations "
          "| grants | 2 × (subgroups + grants) | fragment lookups "
          "| lowerings | renames |")
    print("|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|")
    over = []
    for chains in SIZES:
        placer, requests = decisions(chains)
        for name, request in requests.items():
            ms, subgroups, evaluations, grants, lookups, lowered, renamed = \
                measure(placer, request, args.repeats)
            bound = 2 * (subgroups + grants)
            print(f"| {chains} | {name} | {subgroups} | {ms:.2f} | "
                  f"{evaluations} | {grants} | {bound} | {lookups} | "
                  f"{lowered} | {renamed} |")
            where = f"{chains} chains, {name}"
            if name == "arrive":
                if lowered or lookups != 1:
                    over.append(f"{where}: {lookups} fragment lookups, "
                                f"{lowered} lowerings (want 1 and 0)")
            elif evaluations > bound:
                over.append(f"{where}: {evaluations} > {bound}")
            elif lowered or renamed:
                over.append(f"{where}: {lowered} lowerings, {renamed} "
                            "renames (want 0)")
    print()
    print("Table-2 chains 1-4 on paper-testbed, one cold solve; median of "
          f"{args.repeats}")
    print("| solve | solve ms | analyses | distinct (chain, assignment) |")
    print("|---|---:|---:|---:|")
    ms, analyses, distinct = cold_table2(args.repeats)
    print(f"| cold | {ms:.2f} | {analyses} | {distinct} |")
    failed = False
    if args.check and over:
        print("FAIL: a decision re-evaluated rates per chain per grant, "
              "or redid a chain's P4 lowering: " + "; ".join(over))
        failed = True
    if args.check and analyses > distinct:
        print(f"FAIL: the Table-2 solve ran {analyses} analyses for "
              f"{distinct} distinct (chain, assignment) pairs")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
