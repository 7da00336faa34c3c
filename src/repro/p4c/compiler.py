"""Top-level PISA pipeline compiler.

Given one or more NF chains and, per chain, the set of NF nodes placed on
the switch, the compiler:

1. instantiates standalone P4 NFs from the library (name-mangled per
   instance, §4.2);
2. merges their NF-local parse trees into a unified parser, rejecting the
   placement on conflicts (§A.2.1);
3. converts each chain's switch-resident sub-DAG into a pipeline tree,
   emitting traffic-splitting tables at branches (§A.2.2);
4. applies Lemur's stage optimizations: no NSH tables for all-switch
   chains, a single steering/resume table in the first stage, one SI update
   per service path, and explicit cross-branch/cross-chain exclusivity so
   the allocator may pack parallel work into shared stages (§4.2 (a)-(d));
5. infers the data dependencies between tables in program order, except
   between mutually exclusive ones;
6. packs the resulting table DAG into stages with the selected allocator
   and reports fit against the switch's stage budget.

Step 5 is a per-chain step: chains process disjoint traffic, so every
cross-chain table pair is exclusive and never produces an edge. A
program's edges are the union of its chains' own, each found over the
chain's scope behind the steering table. For the same reason step 6
reads each table's stage facts (footprint, remaining depth, priority,
predecessors, successors) from its chain's fragment; only the steering
table's depth is taken over the whole program.

The Placer treats this as the authoritative feasibility check — exactly how
Lemur uses the Tofino compiler — and, like Lemur, rations what it costs:
steps 1–5 are per chain and depend on nothing but that chain (its graph
and which of its nodes sit on the switch), so each chain lowers into an
immutable :class:`ChainFragment`; step 6 depends only on the ordered
fragments and the switch's stage budget, so the packed
:class:`CompileResult` is memoized on exactly that. Everything lives in
one bounded process-wide LRU keyed by content (never object identity),
which every caller of :meth:`PISACompiler.compile` shares: within one
admission command the heuristic's baseline probe, its candidate
evaluation, the stage check and the meta-compiler ask for the same
program and pack it once.

Fragments are keyed by body. A chain's name reaches its fragment only
as a prefix of the names lowering derives (tables, guard fields), so a
body — the graph without its name (:func:`body_digest`) and the switch
node ids relative to it — lowers once, under a placeholder name, into a
template; a chain with that body is the template with its own name
substituted (:meth:`ChainFragment.renamed`), memoized on the chain's
:func:`graph_digest`. A chain arriving under a new name with a body the
rack already runs costs a rename, not a lowering.

A program is a fold over its chains, starting from the steering table
alone (:class:`_Assembly`). The memo keeps each program's fold state, so
a program whose chains minus the last were assembled before — an
arrival probed against the rack's pinned chains — merges one fragment
into a copy of it; only the stage packing runs over the whole program.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.chain.digest import body_digest, graph_digest
from repro.chain.graph import NFGraph
from repro.exceptions import P4CompileError
from repro.hw.pisa import PISASwitch
from repro.obs import get_registry
from repro.p4c import nflib
from repro.p4c.dependency import exclusive_table_pairs, infer_dependencies
from repro.p4c.ir import P4NF, P4Table, ParseTree, TableDAG
from repro.p4c.parser_merge import merge_into
from repro.p4c.pipeline_tree import (
    TreeNode,
    build_subgroup_dag,
    dag_to_tree,
)
from repro.p4c.stage_alloc import (
    NO_STAGE_FACTS,
    MergedStageFacts,
    StageFacts,
    StageAllocation,
    allocate_conservative,
    allocate_naive,
)

STRATEGIES = ("compiler", "conservative", "naive")

#: The chain name a body template is lowered under. No DSL chain name
#: holds ``<`` or ``>``, and :func:`_sanitize` keeps them, so every name
#: lowering derives from the chain's carries it verbatim.
_PLACEHOLDER = "<body>"


@dataclass(frozen=True, eq=False)
class CompileResult:
    """Outcome of compiling a set of chains onto the switch.

    One instance is shared by every caller that asks for the same program
    (see the module docstring), so it is immutable all the way down: the
    DAG and parser are frozen, stages and ``chain_tables`` values are
    tuples. Treat ``chain_tables`` itself as read-only. Results compare
    by identity: the memo returns one object per program, so "same
    object" is the cheap, exact test for "same program".
    """

    allocation: StageAllocation
    parser: ParseTree
    dag: TableDAG
    chain_tables: Dict[str, Tuple[str, ...]]
    uses_nsh: bool = False

    @property
    def fits(self) -> bool:
        return self.allocation.fits

    @property
    def stage_count(self) -> int:
        return self.allocation.stage_count


@dataclass(frozen=True)
class ChainFragment:
    """One chain's switch-resident part, lowered (steps 1–5).

    Self-contained: everything :meth:`PISACompiler.compile` takes from a
    chain, none of it dependent on the other chains of the program.
    ``tables`` is DAG insertion order, ``scope`` the serialized program
    order (they differ only under ``naive``, whose per-NF check precedes
    the NF it guards), ``edges`` every dependency edge the chain adds to
    the program (declared ones and, unless ``naive``, the inferred data
    dependencies, some from the steering table), ``parse_trees`` the
    NF-local parsers in the order they merge into the unified one.
    ``table_names`` are the names of ``tables``, and ``packing`` what
    the ``compiler`` stage packer reads of them (left empty under
    ``naive``, whose packer reads none of it).
    """

    tables: Tuple[P4Table, ...] = ()
    scope: Tuple[str, ...] = ()
    edges: FrozenSet[Tuple[str, str]] = frozenset()
    nf_groups: Tuple[Tuple[str, ...], ...] = ()
    parse_trees: Tuple[ParseTree, ...] = ()
    uses_nsh: bool = False
    table_names: Tuple[str, ...] = ()
    packing: StageFacts = NO_STAGE_FACTS

    def renamed(self, name: str) -> "ChainFragment":
        """This fragment, lowered under :data:`_PLACEHOLDER`, for the
        chain whose sanitized name is ``name``: the placeholder becomes
        ``name`` in every table name and guard field (``meta.chain_*``,
        ``meta.branch_*``), edge, scope entry, NF group and stage fact.
        Parse trees are NF-local and shared.

        The result shares objects as a fresh lowering does, so it pickles
        to the same size: each table gets its own field sets, each
        renamed field is one string for the whole fragment, and every
        other field is the template's (the NF library's) string."""
        names = tuple(old.replace(_PLACEHOLDER, name)
                      for old in self.table_names)
        rename = dict(zip(self.table_names, names))
        rename[_STEERING] = _STEERING
        fields: Dict[str, str] = {}

        def renamed_fields(old: FrozenSet[str]) -> FrozenSet[str]:
            new = []
            for field in old:
                if _PLACEHOLDER in field:
                    renamed = fields.get(field)
                    if renamed is None:
                        renamed = fields[field] = field.replace(
                            _PLACEHOLDER, name)
                    field = renamed
                new.append(field)
            return frozenset(new)

        return ChainFragment(
            tables=tuple(
                P4Table(
                    new, table.match_type, table.size, table.entry_bits,
                    renamed_fields(table.reads),
                    renamed_fields(table.writes),
                )
                for new, table in zip(names, self.tables)
            ),
            scope=tuple(rename[old] for old in self.scope),
            edges=frozenset(
                (rename[before], rename[after])
                for before, after in self.edges
            ),
            nf_groups=tuple(
                tuple(rename[old] for old in group)
                for group in self.nf_groups
            ),
            parse_trees=self.parse_trees,
            uses_nsh=self.uses_nsh,
            table_names=names,
            packing=(self.packing.renamed(names, rename)
                     if self.packing.sizes else self.packing),
        )


_STEERING = nflib.steering_table().name


class _CompileMemo:
    """The process-wide LRU of compile units — chain fragments, body
    templates, and packed programs (each with its fold state) or the
    :class:`P4CompileError` a program raises — keyed by content.
    Entries are immutable and never pickled — nothing reachable from a
    placement, rack or admission core points here. Lookups are counted
    by the caller (:func:`_count`), once per unit asked for."""

    CAPACITY = 128

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, unit: str, key: tuple):
        with self._lock:
            entry = self._entries.get((unit, key))
            if entry is not None:
                self._entries.move_to_end((unit, key))
        return entry

    def put(self, unit: str, key: tuple, entry: object) -> None:
        with self._lock:
            self._entries[(unit, key)] = entry
            self._trim()

    def keep(self, unit: str, items: Sequence[Tuple[tuple, object]]) -> None:
        """Mark ``items`` (key, entry) used now, putting back any the
        LRU dropped. An extension takes its parent's fragments from the
        parent entry, not from here, yet a later departure or scale
        folds from scratch and must still find them."""
        with self._lock:
            entries = self._entries
            for key, entry in items:
                entries[(unit, key)] = entry
                entries.move_to_end((unit, key))
            self._trim()

    def _trim(self) -> None:
        while len(self._entries) > self.CAPACITY:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_memo = _CompileMemo()


def clear_compile_memo() -> None:
    """Forget every memoized fragment, body template and program (tests
    that compare a warm compile against a cold one)."""
    _memo.clear()


def _count(unit: str, result: str) -> None:
    get_registry().counter(
        "p4c.compile.lookups", unit=unit, result=result
    ).inc()


def _sanitize(node_id: str) -> str:
    return node_id.replace(".", "_").replace("-", "_")


def _augment_reads(table: P4Table, extra: Set[str]) -> P4Table:
    return replace(table, reads=frozenset(table.reads | extra))


class PISACompiler:
    """Compiles chain placements for one PISA switch."""

    def __init__(self, switch: Optional[PISASwitch] = None):
        self.switch = switch or PISASwitch()

    # -- public API ---------------------------------------------------------

    def compile(
        self,
        chain_assignments: Sequence[Tuple[NFGraph, Set[str]]],
        strategy: str = "compiler",
    ) -> CompileResult:
        """Compile chains onto the switch.

        ``chain_assignments`` pairs each chain graph with the node ids
        placed on this switch. ``strategy`` selects the stage allocator:
        ``compiler`` (default), ``conservative``, or ``naive``. The
        result is shared with every other caller asking for the same
        program and must not be mutated; a program that cannot compile
        raises the same :class:`P4CompileError` every time it is asked
        for, without being lowered again.
        """
        return self._compile(*_keyed(chain_assignments), strategy)

    def fits(self, chain_assignments: Sequence[Tuple[NFGraph, Set[str]]]) -> bool:
        """Feasibility check used by the Placer's iterative search."""
        try:
            return self.compile(chain_assignments).fits
        except P4CompileError:
            return False

    def _compile(
        self,
        chains: List[Tuple[NFGraph, FrozenSet[str]]],
        keys: tuple,
        strategy: str,
    ) -> CompileResult:
        """:meth:`compile` of ``chains``, whose program keys are
        ``keys``."""
        if strategy not in STRATEGIES:
            raise P4CompileError(f"unknown allocation strategy {strategy!r}")
        resources = self.switch.stage_resources
        budget = (
            self.switch.num_stages, resources.table_slots,
            resources.sram_kb, resources.tcam_kb, strategy,
        )
        entry = _memo.get("program", budget + (keys,))
        _count("program", "miss" if entry is None else "hit")
        if entry is None:
            try:
                entry = self._assemble(chains, strategy, budget, keys)
            except P4CompileError as exc:
                entry = exc
            _memo.put("program", budget + (keys,), entry)
        if isinstance(entry, P4CompileError):
            # a fresh exception per raise: the memoized one would grow a
            # traceback (and pin its frames) every time it was re-raised
            raise type(entry)(*entry.args)
        return entry.result

    # -- program assembly + stage packing -----------------------------------

    def _assemble(
        self,
        chains: Sequence[Tuple[NFGraph, FrozenSet[str]]],
        strategy: str,
        budget: tuple,
        keys: tuple,
    ) -> "_Program":
        """Fold ``chains`` into a program and pack it: from the memoized
        program of all but the last chain when there is one, else from
        the steering table alone."""
        parent = (_memo.get("program", budget + (keys[:-1],))
                  if len(chains) > 1 else None)
        if isinstance(parent, _Program):
            _memo.keep("fragment", parent.assembly.fragments)
            assembly = parent.assembly.copy()
            chains = chains[-1:]
        else:
            assembly = _Assembly()
        for graph, switch_ids in chains:
            assembly.add(graph, switch_ids, strategy)
        return _Program(assembly.pack(self.switch, strategy), assembly)


class _Assembly:
    """A program's fold state, chain by chain: the unified parser, the
    tables (steering first) and their names, the edges, the serialized
    scope, the NF groups, each chain's tables, the NSH flag, the merged
    stage facts, and the (memo key, fragment) of every chain with
    switch-resident NFs. A memoized program keeps its own; after
    :meth:`pack` its parser is frozen and nothing changes it, so an
    extension folds into a :meth:`copy`."""

    def __init__(self) -> None:
        steering = nflib.steering_table()
        self.parser = ParseTree()
        self.tables: List[P4Table] = [steering]
        self.names: Set[str] = {steering.name}
        self.edges: Set[Tuple[str, str]] = set()
        self.scope: List[str] = [steering.name]
        self.nf_groups: List[Sequence[str]] = [[steering.name]]
        self.chain_tables: Dict[str, Tuple[str, ...]] = {}
        self.uses_nsh = False
        self.facts = MergedStageFacts(steering)
        self.fragments: List[Tuple[tuple, ChainFragment]] = []

    def copy(self) -> "_Assembly":
        other = _Assembly.__new__(_Assembly)
        other.parser = self.parser.copy()
        other.tables = list(self.tables)
        other.names = set(self.names)
        other.edges = set(self.edges)
        other.scope = list(self.scope)
        other.nf_groups = list(self.nf_groups)
        other.chain_tables = dict(self.chain_tables)
        other.uses_nsh = self.uses_nsh
        other.facts = self.facts.copy()
        other.fragments = list(self.fragments)
        return other

    def add(self, graph: NFGraph, switch_ids: FrozenSet[str],
            strategy: str) -> None:
        fragment = _fragment(graph, switch_ids, strategy)
        if switch_ids:
            self.fragments.append(
                (_fragment_key(graph, switch_ids, strategy), fragment))
        for tree in fragment.parse_trees:
            merge_into(self.parser, tree)
        if fragment.uses_nsh:
            # Returning packets carry NSH; the unified parser must
            # accept it.
            self.parser.headers.add("nsh")
            self.uses_nsh = True
        self.names.update(fragment.table_names)
        self.tables.extend(fragment.tables)
        if len(self.names) != len(self.tables):
            _raise_duplicate(self.tables)
        # every edge of a fragment joins two of its own tables, or
        # the steering table and one of them
        self.edges |= fragment.edges
        self.scope.extend(fragment.scope)
        self.nf_groups.extend(fragment.nf_groups)
        self.facts.add(fragment.packing)
        self.chain_tables[graph.name] = fragment.table_names

    def pack(self, switch: PISASwitch, strategy: str) -> CompileResult:
        dag = TableDAG(tables=self.tables, edges=self.edges).freeze()
        resources = switch.stage_resources
        stages = switch.num_stages
        if strategy == "naive":
            allocation = allocate_naive(
                dag, serialized_order=self.scope,
                resources=resources, available_stages=stages,
            )
        elif strategy == "conservative":
            allocation = allocate_conservative(
                dag, nf_groups=self.nf_groups,
                resources=resources, available_stages=stages,
            )
        else:
            allocation = self.facts.allocate(resources, stages)
        return CompileResult(
            allocation=allocation,
            parser=self.parser.freeze(),
            dag=dag,
            chain_tables=self.chain_tables,
            uses_nsh=self.uses_nsh,
        )


@dataclass(frozen=True, eq=False)
class _Program:
    """A memoized program: what callers get, and the fold that built it."""

    result: CompileResult
    assembly: _Assembly


def _keyed(
    chain_assignments: Sequence[Tuple[NFGraph, Set[str]]],
) -> Tuple[List[Tuple[NFGraph, FrozenSet[str]]], tuple]:
    """The chains with frozen switch node sets, and their program keys."""
    chains = [
        (graph, frozenset(switch_ids))
        for graph, switch_ids in chain_assignments
    ]
    return chains, tuple((graph_digest(graph), ids) for graph, ids in chains)


def _raise_duplicate(tables: Sequence[P4Table]) -> None:
    """Raise what :meth:`TableDAG.add_table` raises for the first table
    of ``tables`` whose name an earlier one has."""
    seen: Set[str] = set()
    for table in tables:
        if table.name in seen:
            raise P4CompileError(f"duplicate table name {table.name!r}")
        seen.add(table.name)


# -- per-chain lowering --------------------------------------------------------

def _fragment_key(graph: NFGraph, switch_ids: FrozenSet[str],
                  strategy: str) -> tuple:
    return graph_digest(graph), switch_ids, strategy


def _fragment(
    graph: NFGraph, switch_ids: FrozenSet[str], strategy: str
) -> ChainFragment:
    """``graph``'s lowered switch part, from the memo when this chain
    (graph digest — which covers the chain's name, so a different body
    under a reused name is a different key — node set, strategy) was
    asked for before; else its body's template renamed, the template
    lowered first if no chain with this body and relative node set was
    (lookup result ``hit``, ``renamed`` or ``miss``)."""
    if not switch_ids:
        return ChainFragment()
    key = _fragment_key(graph, switch_ids, strategy)
    fragment = _memo.get("fragment", key)
    if fragment is not None:
        _count("fragment", "hit")
        return fragment
    cut = len(graph.name) + 1
    relative = frozenset(nid[cut:] for nid in switch_ids)
    body_key = (body_digest(graph), relative, strategy)
    template = _memo.get("template", body_key)
    _count("fragment", "miss" if template is None else "renamed")
    if template is None:
        template = _lower_chain(
            graph.renamed(_PLACEHOLDER),
            frozenset(f"{_PLACEHOLDER}.{nid}" for nid in relative),
            strategy,
        )
        _memo.put("template", body_key, template)
    fragment = template.renamed(_sanitize(graph.name))
    _memo.put("fragment", key, fragment)
    return fragment


def _lower_chain(
    graph: NFGraph, switch_ids: FrozenSet[str], strategy: str
) -> ChainFragment:
    fragment, partitions = _lower_tables(graph, switch_ids, strategy)
    if strategy == "naive":
        return fragment
    own = _with_dependencies(fragment, partitions)
    return replace(fragment, edges=frozenset(own.edges),
                   packing=StageFacts.of(own))


def _with_dependencies(
    fragment: ChainFragment,
    partitions: Sequence[Tuple[FrozenSet[str], ...]],
) -> TableDAG:
    """The steering table and ``fragment``'s tables, with its edges plus
    the data dependencies over its scope behind the steering table. Each
    partition holds table-name sets that are pairwise mutually exclusive
    (sibling arms of one branch block, or encap and decap). Every
    cross-chain table pair is exclusive in the program too (chains
    process disjoint traffic aggregates: optimization (d) at chain
    granularity), so these are all the edges the program will have."""
    own = TableDAG()
    steering = nflib.steering_table()
    own.add_table(steering)
    for table in fragment.tables:
        own.add_table(table)
    own.edges.update(fragment.edges)
    exclusive: Set[Tuple[str, str]] = set()
    for partition in partitions:
        exclusive |= exclusive_table_pairs(partition)
    infer_dependencies(own, [steering.name, *fragment.scope], exclusive)
    return own


def _lower_tables(
    graph: NFGraph, switch_ids: FrozenSet[str], strategy: str
) -> Tuple[ChainFragment, List[Tuple[FrozenSet[str], ...]]]:
    """Steps 1–4: the fragment with only its declared edges, and the
    partitions of mutually exclusive tables its dependency inference
    must skip."""
    sg_dag = build_subgroup_dag(graph, sorted(switch_ids))
    tree = dag_to_tree(sg_dag)
    spans_platforms = switch_ids != set(graph.nodes)
    if tree is None:
        return ChainFragment(uses_nsh=spans_platforms), []
    chain_guard = f"meta.chain_{_sanitize(graph.name)}"

    # Instantiate P4 NFs; their parsers merge in this order.
    p4nfs: Dict[str, P4NF] = {}
    for node_id in sorted(switch_ids):
        node = graph.nodes[node_id]
        p4nfs[node_id] = nflib.make_p4_nf(
            node.nf_class, _sanitize(node_id), node.params
        )

    nf_to_tables: Dict[str, List[str]] = {
        nf_id: [t.name for t in p4nfs[nf_id].dag.tables] for nf_id in p4nfs
    }

    # Per-arm guards: tables inside a branch arm are predicated on the
    # splitting table's decision metadata, and sibling arms are mutually
    # exclusive (so the allocator may pack them into shared stages).
    guards: Dict[str, Set[str]] = {nid: {chain_guard} for nid in switch_ids}
    split_tables: Dict[str, P4Table] = {}  # branching sg -> split table
    tree_index = _index_tree(tree)
    partitions: List[Tuple[FrozenSet[str], ...]] = []

    for sg_id in sg_dag.branching_nodes():
        split_name = f"{_sanitize(sg_id)}_split"
        n_arms = len(sg_dag.successors(sg_id))
        split = nflib.branch_split_table(split_name, n_arms)
        split = _augment_reads(split, {chain_guard})
        branch_guard = f"meta.branch_{_sanitize(sg_id)}"
        split = replace(split, writes=frozenset(split.writes | {branch_guard}))
        split_tables[sg_id] = split
        node = tree_index[sg_id]
        arm_table_groups: List[FrozenSet[str]] = []
        for child in node.children:
            if child.is_merge:
                continue
            arm_tables: Set[str] = set()
            for desc in child.preorder():
                if desc.is_merge:
                    continue
                for nf_id in desc.subgroup.nf_node_ids:
                    guards[nf_id].add(branch_guard)
                    arm_tables.update(nf_to_tables[nf_id])
            if arm_tables:
                arm_table_groups.append(frozenset(arm_tables))
        if len(arm_table_groups) >= 2:
            partitions.append(tuple(arm_table_groups))

    # Emit tables in preorder: per subgroup, member NFs in order; the
    # split table rides right after its branching subgroup.
    tables: List[P4Table] = []
    scope: List[str] = []
    edges: List[Tuple[str, str]] = []
    nf_groups: List[Tuple[str, ...]] = []

    def emit(table: P4Table) -> None:
        tables.append(table)
        scope.append(table.name)
        nf_groups.append((table.name,))

    for node in tree.preorder():
        sg = node.subgroup
        for nf_id in sg.nf_node_ids:
            p4nf = p4nfs[nf_id]
            group = [
                _augment_reads(table, guards[nf_id])
                for table in p4nf.dag.tables
            ]
            tables.extend(group)
            if strategy == "naive":
                # checks precede the NF in the serialized order
                check = P4Table(
                    name=f"{_sanitize(nf_id)}_check",
                    size=16,
                    entry_bits=16,
                    reads=frozenset({chain_guard}),
                    writes=frozenset(),
                )
                tables.append(check)
                scope.append(check.name)
            scope.extend(table.name for table in group)
            edges.extend(p4nf.dag.edges)
            nf_groups.append(tuple(table.name for table in group))
        split = split_tables.get(sg.sg_id)
        if split is not None:
            emit(split)

    # NSH encap/decap (optimization (a): only when spanning platforms;
    # optimization (b): one SI-update/encap table per service path).
    if spans_platforms:
        encap = nflib.nsh_encap_table(f"{_sanitize(graph.name)}_nsh_encap")
        encap = _augment_reads(encap, {chain_guard})
        emit(encap)
        # the encap happens after the last switch NF before each bounce:
        for nf_id in _bounce_exit_nodes(graph, switch_ids):
            for table_name in nf_to_tables[nf_id]:
                edges.append((table_name, encap.name))

        # Decap runs on the *return* pass, right after the steering
        # table recognizes a packet coming back from a server
        # (optimization (c): resume steering lives in the first stage).
        # Within a single pipeline traversal encap and decap never both
        # apply to a packet, so they are mutually exclusive and the
        # encap→decap NSH-field dependency must not serialize them.
        decap = nflib.nsh_decap_table(f"{_sanitize(graph.name)}_nsh_decap")
        decap = _augment_reads(decap, {chain_guard})
        emit(decap)
        edges.append(("lemur_steering", decap.name))
        partitions.append(
            (frozenset({encap.name}), frozenset({decap.name}))
        )

    return ChainFragment(
        tables=tuple(tables),
        table_names=tuple(table.name for table in tables),
        scope=tuple(scope),
        edges=frozenset(edges),
        nf_groups=tuple(nf_groups),
        parse_trees=tuple(
            p4nfs[node_id].parse_tree for node_id in sorted(switch_ids)
        ),
        uses_nsh=spans_platforms,
    ), partitions


def _bounce_exit_nodes(graph: NFGraph, switch_ids: FrozenSet[str]) -> List[str]:
    """Switch nodes whose successor leaves the switch (bounce points)."""
    out = []
    for nid in switch_ids:
        for edge in graph.out_edges(nid):
            if edge.dst not in switch_ids:
                out.append(nid)
                break
    return out


class ContextCompiler(PISACompiler):
    """A :class:`PISACompiler` that prepends an already-placed context.

    Incremental placement pins existing chains and places only a delta;
    stage usage is not additive across chains (same-class tables pack
    into shared stages), so the only faithful stage check for a delta
    candidate is to compile it *together with* the pinned program.
    Wrapping the compiler makes every existing call site (baseline
    search, candidate evaluation, switch-fit verification)
    context-aware without changing their signatures. The pinned program
    is memoized (the rack's last decision compiled it), so a delta of one
    chain extends it by that chain's fragment; the context's program
    keys are found once, not per candidate.
    """

    def __init__(
        self,
        switch: Optional[PISASwitch],
        context: Sequence[Tuple[NFGraph, Set[str]]],
    ):
        super().__init__(switch)
        self._context, self._context_keys = _keyed(context)

    def compile(
        self,
        chain_assignments: Sequence[Tuple[NFGraph, Set[str]]],
        strategy: str = "compiler",
    ) -> CompileResult:
        chains, keys = _keyed(chain_assignments)
        return self._compile(self._context + chains,
                             self._context_keys + keys, strategy)


def _index_tree(tree: TreeNode) -> Dict[str, TreeNode]:
    return {node.subgroup.sg_id: node for node in tree.preorder()}
