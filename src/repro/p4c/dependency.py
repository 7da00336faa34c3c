"""Table dependency analysis.

Two facts drive stage layout (§4.2): (1) a match/action table cannot be
revisited, so the pipeline is a tree traversed once; (2) two tables with a
dependency between them cannot share a stage. This module derives
read-after-write ("match") and write-after-write ("action") dependencies
from the tables' declared ``reads``/``writes`` sets, *within the scope the
codegen declares* — the codegen's dependency-elimination optimizations work
precisely by keeping unrelated tables out of each other's scope.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.exceptions import P4CompileError
from repro.p4c.ir import P4Table, TableDAG


def data_dependent(before: P4Table, after: P4Table) -> bool:
    """Must ``after`` be placed strictly later than ``before``?

    True for match dependencies (``after`` reads what ``before`` writes) and
    action-output dependencies (both write the same field — order matters).
    """
    if before.writes & after.reads:
        return True
    if before.writes & after.writes:
        return True
    return False


def infer_dependencies(
    dag: TableDAG,
    ordered_scope: Sequence[str],
    exclusive_pairs: Optional[Set[Tuple[str, str]]] = None,
) -> None:
    """Add data-dependency edges between tables in program order.

    ``ordered_scope`` lists table names in the program order the codegen
    emitted; for each ordered pair with a data dependency an edge is added —
    unless the pair is marked mutually exclusive (parallel branches), in
    which case the compiler may pack them together (§4.2 optimization (d)).
    """
    exclusive_pairs = exclusive_pairs or set()
    tables = [dag.table(name) for name in ordered_scope]
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            if (a.name, b.name) in exclusive_pairs \
                    or (b.name, a.name) in exclusive_pairs:
                continue
            if data_dependent(a, b):
                if a.name == b.name:
                    raise P4CompileError(
                        f"self-dependency on table {a.name!r}"
                    )
                # both names were just resolved through the DAG, so this
                # is add_edge without its per-call scan of every table
                dag.edges.add((a.name, b.name))


def chain_dependencies(dag: TableDAG, ordered_scope: Sequence[str]) -> None:
    """Fully serialize a scope: each table after its predecessor.

    This is what naive codegen produces ("generate code for NFs in a
    topological-sort order, and place a check at the beginning of each NF")
    and why it wastes stages.
    """
    for before, after in zip(ordered_scope, ordered_scope[1:]):
        dag.add_edge(before, after)


def exclusive_table_pairs(groups: Iterable[Set[str]]) -> Set[Tuple[str, str]]:
    """Expand exclusivity groups into unordered exclusive table pairs.

    Tables in *different* groups of the same branch block never see the same
    packet, so no dependency between them is necessary.
    """
    pairs: Set[Tuple[str, str]] = set()
    group_list = [sorted(g) for g in groups]
    for gi, gj in combinations(range(len(group_list)), 2):
        for a in group_list[gi]:
            for b in group_list[gj]:
                pairs.add((a, b))
    return pairs
