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
  :class:`MergedStageFacts` is the same packing for a program joined
  from fragments whose per-table facts were derived once
  (:class:`StageFacts`), merged one fragment at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


def _exceeds(size: Tuple[float, float],
             resources: PISAStageResources) -> bool:
    return size[0] > resources.sram_kb or size[1] > resources.tcam_kb


def _too_large(name: str, size: Tuple[float, float]) -> P4CompileError:
    return P4CompileError(
        f"table {name!r} exceeds a whole stage's memory "
        f"(sram={size[0]:.0f}KB, tcam={size[1]:.0f}KB)"
    )


def _footprints(
    dag: TableDAG, resources: PISAStageResources
) -> Dict[str, Tuple[float, float]]:
    """Each table's (SRAM, TCAM) KB, read once; raises for a table no
    single stage can hold."""
    sizes: Dict[str, Tuple[float, float]] = {}
    for table in dag.tables:
        size = (table.sram_kb, table.tcam_kb)
        if _exceeds(size, resources):
            raise _too_large(table.name, size)
        sizes[table.name] = size
    return sizes


def _order_facts(
    dag: TableDAG, sizes: Dict[str, Tuple[float, float]]
) -> Tuple[Dict[str, tuple], Dict[str, int], Dict[str, List[str]]]:
    """What list scheduling reads of ``dag`` besides ``sizes``: each
    table's ready-list priority (deepest remaining chain, then largest,
    then name), its predecessor count and its successors."""
    waiting = dict.fromkeys(sizes, 0)
    succs: Dict[str, List[str]] = {name: [] for name in sizes}
    for before, after in dag.edges:
        waiting[after] += 1
        succs[before].append(after)
    depth: Dict[str, int] = {}
    for name in reversed(dag.topological_order()):
        depth[name] = 1 + max((depth[s] for s in succs[name]), default=0)
    priority = {
        name: (-depth[name], -(sram_kb + tcam_kb), name)
        for name, (sram_kb, tcam_kb) in sizes.items()
    }
    return priority, waiting, succs


def allocate_compiler(
    dag: TableDAG,
    resources: Optional[PISAStageResources] = None,
    available_stages: int = 12,
) -> StageAllocation:
    """List-scheduling with backfill (the optimizing compiler model).

    Tables become schedulable once all their dependencies sit in strictly
    earlier stages; each stage greedily packs ready tables — prioritizing
    deeper-remaining-chain and larger tables — until a resource is
    exhausted. A table's unplaced-predecessor count drops when a stage
    closes.
    """
    resources = resources or PISAStageResources()
    sizes = _footprints(dag, resources)
    return _list_schedule(sizes, *_order_facts(dag, sizes), resources,
                          available_stages)


@dataclass(frozen=True, eq=False)
class StageFacts:
    """One fragment's tables as :func:`allocate_compiler` reads them. A
    fragment is a set of tables behind a root table: each of its edges
    joins two of its tables or runs from the root to one of them. Its
    facts are derived once (:meth:`of`) and read by every program that
    joins it to other fragments under the same root
    (:class:`MergedStageFacts`).

    Keyed by table name, in table order: ``sizes`` the (SRAM, TCAM) KB,
    ``priority`` the ready-list key, ``waiting`` the predecessor count
    (the root's edge included), ``succs`` the successors; all four hold
    the tables in the same order. The root's own facts are
    ``root_succs`` and ``root_depth``, its remaining depth over this
    fragment. ``largest`` is the (SRAM, TCAM) maximum over the
    fragment's tables.
    """

    sizes: Dict[str, Tuple[float, float]]
    priority: Dict[str, tuple]
    waiting: Dict[str, int]
    succs: Dict[str, List[str]]
    root_succs: Tuple[str, ...] = ()
    root_depth: int = 1
    largest: Tuple[float, float] = (0.0, 0.0)

    @classmethod
    def of(cls, dag: TableDAG) -> "StageFacts":
        """The facts of the tables of ``dag`` after its first, the root."""
        sizes = {table.name: (table.sram_kb, table.tcam_kb)
                 for table in dag.tables}
        priority, waiting, succs = _order_facts(dag, sizes)
        root = dag.tables[0].name
        del sizes[root], waiting[root]
        return cls(
            sizes=sizes, priority=priority, waiting=waiting, succs=succs,
            root_succs=tuple(succs.pop(root)),
            root_depth=-priority.pop(root)[0],
            largest=(max((sram for sram, _ in sizes.values()), default=0.0),
                     max((tcam for _, tcam in sizes.values()), default=0.0)),
        )


    def renamed(self, names: Sequence[str],
                rename: Dict[str, str]) -> "StageFacts":
        """These facts for the same tables under new names: ``names``
        in table order, ``rename`` from each old name to its new one."""
        return StageFacts(
            sizes=dict(zip(names, self.sizes.values())),
            priority={
                name: (depth, size, name)
                for name, (depth, size, _old)
                in zip(names, self.priority.values())
            },
            waiting=dict(zip(names, self.waiting.values())),
            succs={
                name: [rename[succ] for succ in succs]
                for name, succs in zip(names, self.succs.values())
            },
            root_succs=tuple(rename[succ] for succ in self.root_succs),
            root_depth=self.root_depth,
            largest=self.largest,
        )


#: the facts of a fragment with no tables
NO_STAGE_FACTS = StageFacts({}, {}, {}, {})


class MergedStageFacts:
    """:func:`allocate_compiler`'s inputs for the DAG of ``root``
    followed by fragments' tables, merged from the fragments' own facts
    one at a time (:meth:`add`). Only the root's remaining depth depends
    on them all: 1 + the deepest of its successors. ``largest`` is the
    (SRAM, TCAM) maximum over the fragments' tables. A memoized program
    keeps its merged facts; a program that extends it merges a
    :meth:`copy`."""

    def __init__(self, root: P4Table):
        name = root.name
        self.root = root
        self.sizes: Dict[str, Tuple[float, float]] = {
            name: (root.sram_kb, root.tcam_kb)}
        self.priority: Dict[str, tuple] = {
            name: (-1, -(root.sram_kb + root.tcam_kb), name)}
        self.waiting: Dict[str, int] = {name: 0}
        self.succs: Dict[str, List[str]] = {name: []}
        self.largest: Tuple[float, float] = (0.0, 0.0)

    def copy(self) -> "MergedStageFacts":
        other = MergedStageFacts.__new__(MergedStageFacts)
        other.root = self.root
        other.sizes = dict(self.sizes)
        other.priority = dict(self.priority)
        other.waiting = dict(self.waiting)
        other.succs = dict(self.succs)
        other.succs[self.root.name] = list(self.succs[self.root.name])
        other.largest = self.largest
        return other

    def add(self, fragment: StageFacts) -> None:
        root = self.root.name
        self.sizes.update(fragment.sizes)
        self.priority.update(fragment.priority)
        self.waiting.update(fragment.waiting)
        self.succs.update(fragment.succs)
        self.succs[root].extend(fragment.root_succs)
        depth, size, _ = self.priority[root]
        if fragment.root_depth > -depth:
            self.priority[root] = (-fragment.root_depth, size, root)
        sram, tcam = self.largest
        if fragment.largest[0] > sram or fragment.largest[1] > tcam:
            self.largest = (max(sram, fragment.largest[0]),
                            max(tcam, fragment.largest[1]))

    def allocate(
        self,
        resources: Optional[PISAStageResources] = None,
        available_stages: int = 12,
    ) -> StageAllocation:
        """Pack the merged program; raises for the first table, in DAG
        order, that no single stage can hold."""
        resources = resources or PISAStageResources()
        if _exceeds(self.sizes[self.root.name], resources) \
                or _exceeds(self.largest, resources):
            for name, size in self.sizes.items():
                if _exceeds(size, resources):
                    raise _too_large(name, size)
        return _list_schedule(self.sizes, self.priority, self.waiting,
                              self.succs, resources, available_stages)


def _list_schedule(
    sizes: Dict[str, Tuple[float, float]],
    priority: Dict[str, tuple],
    waiting: Dict[str, int],
    succs: Dict[str, List[str]],
    resources: PISAStageResources,
    available_stages: int,
) -> StageAllocation:
    """The scheduling loop of :func:`allocate_compiler`. Counts down a
    copy of ``waiting``. Each stage takes ready tables in priority order
    while it has a slot left; a table its remaining memory cannot hold
    waits for the next stage."""
    waiting = dict(waiting)
    ready = [name for name, count in waiting.items() if count == 0]
    unplaced = len(sizes)
    stages: List[List[str]] = []
    by_priority = priority.__getitem__

    while unplaced:
        if not ready:
            raise P4CompileError("stage allocation stuck: cyclic dependencies?")
        ready.sort(key=by_priority)
        slots = resources.table_slots
        sram_kb, tcam_kb = resources.sram_kb, resources.tcam_kb
        stage: List[str] = []
        left: List[str] = []
        for index, name in enumerate(ready):
            if slots < 1:  # the stage is full: the rest wait
                left.extend(ready[index:])
                break
            table_sram, table_tcam = sizes[name]
            if table_sram > sram_kb or table_tcam > tcam_kb:
                left.append(name)
                continue
            slots -= 1
            sram_kb -= table_sram
            tcam_kb -= table_tcam
            stage.append(name)
        if not stage:
            raise P4CompileError(
                "stage allocation made no progress (table too large?)"
            )
        unplaced -= len(stage)
        ready = left
        for name in stage:
            for succ in succs[name]:
                waiting[succ] -= 1
                if waiting[succ] == 0:
                    ready.append(succ)
        stages.append(stage)

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
    _footprints(dag, resources)
    order = list(serialized_order or dag.topological_order())
    stages = [[name] for name in order]
    return StageAllocation(stages=stages, available_stages=available_stages,
                           strategy="naive")
