"""Stage allocation: packing a table DAG into PISA pipeline stages.

Three allocators model the three regimes the paper contrasts (§5.2):

* :func:`allocate_naive` — what naive codegen yields: tables fully
  serialized (one dependency chain), so stages ~= table count. "Without
  [dependency elimination] the 10-NAT placement would have required 27
  stages."
* :func:`allocate_conservative` — an analytic estimate in the style of
  Sonata [14]: no cross-NF stage sharing, so each NF group contributes its
  own stages. "It estimated 14 stages, while the compiler could fit these
  into 12."
* :func:`allocate_compiler` — models the platform compiler's black-box
  packing: list scheduling with backfill, sharing stages between
  independent tables and across parallel branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import P4CompileError
from repro.hw.pisa import PISAStageResources
from repro.p4c.ir import P4Table, TableDAG


@dataclass(frozen=True)
class StageAllocation:
    """Result of packing a pipeline: table names per stage.

    Immutable (a memoized compile hands the same allocation to every
    caller); ``stages`` is normalized to a tuple of tuples.
    """

    stages: Tuple[Tuple[str, ...], ...] = ()
    available_stages: int = 12
    strategy: str = "compiler"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stages", tuple(tuple(stage) for stage in self.stages)
        )

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def fits(self) -> bool:
        return self.stage_count <= self.available_stages

    def stage_of(self, table_name: str) -> int:
        for index, stage in enumerate(self.stages):
            if table_name in stage:
                return index
        raise P4CompileError(f"table {table_name!r} not allocated")


class _StageBin:
    """One stage's remaining resources."""

    def __init__(self, resources: PISAStageResources):
        self.slots = resources.table_slots
        self.sram_kb = resources.sram_kb
        self.tcam_kb = resources.tcam_kb
        self.tables: List[str] = []

    def try_add(self, table: P4Table) -> bool:
        if self.slots < 1:
            return False
        if table.sram_kb > self.sram_kb or table.tcam_kb > self.tcam_kb:
            return False
        self.slots -= 1
        self.sram_kb -= table.sram_kb
        self.tcam_kb -= table.tcam_kb
        self.tables.append(table.name)
        return True


def _check_single_stage_fit(dag: TableDAG, resources: PISAStageResources) -> None:
    for table in dag.tables:
        if (table.sram_kb > resources.sram_kb
                or table.tcam_kb > resources.tcam_kb):
            raise P4CompileError(
                f"table {table.name!r} exceeds a whole stage's memory "
                f"(sram={table.sram_kb:.0f}KB, tcam={table.tcam_kb:.0f}KB)"
            )


def allocate_compiler(
    dag: TableDAG,
    resources: Optional[PISAStageResources] = None,
    available_stages: int = 12,
) -> StageAllocation:
    """List-scheduling with backfill (the optimizing compiler model).

    Tables become schedulable once all their dependencies sit in strictly
    earlier stages; each stage greedily packs ready tables — prioritizing
    deeper-remaining-chain and larger tables — until a resource is
    exhausted.
    """
    resources = resources or PISAStageResources()
    _check_single_stage_fit(dag, resources)

    by_name = {t.name: t for t in dag.tables}
    preds: Dict[str, List[str]] = {name: [] for name in by_name}
    succs: Dict[str, List[str]] = {name: [] for name in by_name}
    for before, after in dag.edges:
        preds[after].append(before)
        succs[before].append(after)
    remaining_depth = _remaining_depths(dag, succs)
    # ready-list priority: deepest remaining chain, then largest, then name
    priority = {
        name: (-remaining_depth[name], -(t.sram_kb + t.tcam_kb), name)
        for name, t in by_name.items()
    }
    placed_stage: Dict[str, int] = {}
    unplaced: Set[str] = set(by_name)
    stages: List[List[str]] = []

    while unplaced:
        stage_index = len(stages)
        ready = [
            name for name in unplaced
            if all(placed_stage.get(p, stage_index) < stage_index
                   for p in preds[name])
        ]
        if not ready:
            raise P4CompileError("stage allocation stuck: cyclic dependencies?")
        ready.sort(key=priority.__getitem__)
        stage_bin = _StageBin(resources)
        placed_any = False
        for name in ready:
            if stage_bin.try_add(by_name[name]):
                placed_stage[name] = stage_index
                unplaced.discard(name)
                placed_any = True
        if not placed_any:
            raise P4CompileError(
                "stage allocation made no progress (table too large?)"
            )
        stages.append(stage_bin.tables)

    return StageAllocation(stages=stages, available_stages=available_stages,
                           strategy="compiler")


def allocate_conservative(
    dag: TableDAG,
    nf_groups: Sequence[Sequence[str]],
    resources: Optional[PISAStageResources] = None,
    available_stages: int = 12,
) -> StageAllocation:
    """Analytic estimate: NF groups never share stages.

    Each group's tables are list-scheduled among themselves; group stage
    spans are then laid end to end. This mirrors conservative estimation
    from placement results without compiler knowledge [14], which the paper
    found "very conservative" — leaving stranded switch resources.
    """
    resources = resources or PISAStageResources()
    stages: List[List[str]] = []
    grouped = {name for group in nf_groups for name in group}
    missing = {t.name for t in dag.tables} - grouped
    if missing:
        raise P4CompileError(f"tables not covered by any NF group: {missing}")

    for group in nf_groups:
        sub = TableDAG()
        group_set = set(group)
        for table in dag.tables:
            if table.name in group_set:
                sub.add_table(table)
        for a, b in dag.edges:
            if a in group_set and b in group_set:
                sub.add_edge(a, b)
        allocation = allocate_compiler(sub, resources,
                                       available_stages=available_stages)
        stages.extend(allocation.stages)

    return StageAllocation(stages=stages, available_stages=available_stages,
                           strategy="conservative")


def allocate_naive(
    dag: TableDAG,
    serialized_order: Optional[Sequence[str]] = None,
    resources: Optional[PISAStageResources] = None,
    available_stages: int = 12,
) -> StageAllocation:
    """Naive codegen: one table per stage in topological-sort order.

    Models emitting NFs sequentially with a check before each NF: every
    table depends on its predecessor, so none can share a stage.
    """
    resources = resources or PISAStageResources()
    _check_single_stage_fit(dag, resources)
    order = list(serialized_order or dag.topological_order())
    stages = [[name] for name in order]
    return StageAllocation(stages=stages, available_stages=available_stages,
                           strategy="naive")


def _remaining_depths(
    dag: TableDAG, succs: Dict[str, List[str]]
) -> Dict[str, int]:
    """Longest chain below each table (scheduling priority)."""
    depth: Dict[str, int] = {}
    for name in reversed(dag.topological_order()):
        depth[name] = 1 + max((depth[s] for s in succs[name]), default=0)
    return depth
