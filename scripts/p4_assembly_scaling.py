#!/usr/bin/env python
"""Measure how packing a P4 program grows with its chains.

For programs of 4, 8, 16, 32 and 64 ``ACL -> Tunnel -> IPv4Fwd`` chains,
every NF on the ``paper-testbed`` switch, each chain's fragment is
lowered first (fragments warm) and the program itself is not in the
compile memo, so ``PISACompiler.compile`` assembles and packs it from
memoized fragments: what a placer probe pays for a new program. Prints,
per size, the program's table and stage counts, the median assembly
time, how many table pairs dependency inference evaluates during
assembly (``repro.p4c.dependency.data_dependent`` calls) and how many
topological sorts it runs (``TableDAG.topological_order`` calls).

Dependency inference and the stage packer's per-table facts belong to
each chain's lowering: every cross-chain table pair is mutually
exclusive, so a warm assembly evaluates no pair and sorts no DAG; only
the steering table's depth is taken over the whole program.
``--check`` exits 1 when it evaluates any pair or sorts any DAG.

    PYTHONPATH=src python scripts/p4_assembly_scaling.py [--repeats N] [--check]
"""

import argparse
import statistics
import time
from unittest import mock

from repro.chain.graph import chains_from_spec
from repro.hw.spec import topology_for
from repro.p4c import dependency
from repro.p4c.compiler import PISACompiler, _fragment, clear_compile_memo
from repro.p4c.ir import TableDAG

SIZES = (4, 8, 16, 32, 64)
BODY = "ACL -> Tunnel -> IPv4Fwd"


def program(chains: int):
    spec = "\n".join(f"chain c{index}: {BODY}" for index in range(chains))
    return [(chain.graph, set(chain.graph.nodes))
            for chain in chains_from_spec(spec)]


def warm_fragments(pairs) -> None:
    """A cold memo holding every chain's fragment and nothing else."""
    clear_compile_memo()
    for graph, ids in pairs:
        _fragment(graph, frozenset(ids), "compiler")


def measure(chains: int, repeats: int):
    compiler = PISACompiler(topology_for("paper-testbed").build().switch)
    pairs = program(chains)
    seconds = []
    for _ in range(repeats):
        warm_fragments(pairs)
        start = time.perf_counter()
        result = compiler.compile(pairs)
        seconds.append(time.perf_counter() - start)
    warm_fragments(pairs)
    calls, sorts = [], []
    real = dependency.data_dependent
    real_sort = TableDAG.topological_order
    with mock.patch.object(
        dependency, "data_dependent",
        lambda a, b: calls.append(None) or real(a, b),
    ), mock.patch.object(
        TableDAG, "topological_order",
        lambda dag: sorts.append(None) or real_sort(dag),
    ):
        compiler.compile(pairs)
    clear_compile_memo()
    return (len(result.dag.tables), result.stage_count,
            statistics.median(seconds) * 1e3, len(calls), len(sorts))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=21)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a warm assembly evaluates any "
                             "table pair or sorts any DAG")
    args = parser.parse_args()
    print(f"`{BODY}` chains on the paper-testbed switch, fragments warm; "
          f"median of {args.repeats} assemblies")
    print("| chains | tables | stages | assembly ms | pairs evaluated "
          "| topological sorts |")
    print("|---:|---:|---:|---:|---:|---:|")
    evaluated = sorted_dags = 0
    for chains in SIZES:
        tables, stages, ms, pairs, sorts = measure(chains, args.repeats)
        evaluated += pairs
        sorted_dags += sorts
        print(f"| {chains} | {tables} | {stages} | {ms:.2f} | {pairs} "
              f"| {sorts} |")
    failed = False
    if args.check and evaluated:
        print(f"FAIL: warm assemblies evaluated {evaluated} table pairs; "
              "dependency inference belongs to each chain's lowering")
        failed = True
    if args.check and sorted_dags:
        print(f"FAIL: warm assemblies ran {sorted_dags} topological sorts; "
              "each fragment carries its tables' depths from its lowering")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
