"""A program packs exactly as the whole-program passes packed it.

The compiler used to run two whole-program algorithms on every program
it had not packed before. Both are kept here as oracles:

* the dependency pass: ``infer_dependencies`` over the full program
  scope, with ``exclusive_table_pairs`` applied to every partition (each
  chain's branch arms and encap/decap, plus one partition holding every
  chain's table set);
* the stage packer that rescans every unplaced table on every stage.

The compiler now infers each chain's edges while lowering it, and packs
from a ready list fed by each fragment's own stage facts (footprints,
depths, predecessor counts, successors), found when the chain lowered;
``allocate_compiler`` still derives them from a whole DAG, and the two
must pack alike. For random chain sets, switch subsets and strategies,
both ways must give the same stages, edges, chain tables, parser and
NSH flag, or the same error. The oracle shares only lowering steps 1–4
(``_lower_tables``) and the conservative strategy's per-group split
(``allocate_conservative``) with the compiler.
"""

from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.chain.graph import chains_from_spec
from repro.exceptions import P4CompileError
from repro.experiments.chains import canonical_chain
from repro.hw.pisa import PISAStageResources, PISASwitch
from repro.p4c import compiler as p4c
from repro.p4c import dependency, nflib
from repro.p4c.compiler import PISACompiler, clear_compile_memo
from repro.p4c.dependency import exclusive_table_pairs, infer_dependencies
from repro.p4c.ir import MatchType, P4Table, ParseTree, TableDAG
from repro.p4c.parser_merge import merge_into
from repro.p4c.stage_alloc import (
    allocate_compiler,
    allocate_conservative,
    allocate_naive,
)

# -- the oracles ---------------------------------------------------------------


def sorted_list_order(dag):
    """Kahn's algorithm over a list re-sorted after every step."""
    in_degree = {t.name: 0 for t in dag.tables}
    successors = {name: [] for name in in_degree}
    for a, b in dag.edges:
        in_degree[b] += 1
        successors[a].append(b)
    ready = sorted(name for name, deg in in_degree.items() if deg == 0)
    order = []
    while ready:
        name = ready.pop(0)
        order.append(name)
        for succ in sorted(successors[name]):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(dag.tables):
        raise P4CompileError("table dependency graph has a cycle")
    return order


def rescanning_packer(dag, resources):
    """List scheduling that rescans every unplaced table on every stage."""
    for table in dag.tables:
        if (table.sram_kb > resources.sram_kb
                or table.tcam_kb > resources.tcam_kb):
            raise P4CompileError(
                f"table {table.name!r} exceeds a whole stage's memory "
                f"(sram={table.sram_kb:.0f}KB, tcam={table.tcam_kb:.0f}KB)"
            )
    by_name = {t.name: t for t in dag.tables}
    preds = {name: [] for name in by_name}
    succs = {name: [] for name in by_name}
    for before, after in dag.edges:
        preds[after].append(before)
        succs[before].append(after)
    depth = {}
    for name in reversed(sorted_list_order(dag)):
        depth[name] = 1 + max((depth[s] for s in succs[name]), default=0)
    priority = {
        name: (-depth[name], -(t.sram_kb + t.tcam_kb), name)
        for name, t in by_name.items()
    }
    placed_stage = {}
    unplaced = set(by_name)
    stages = []
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
        slots = resources.table_slots
        sram, tcam = resources.sram_kb, resources.tcam_kb
        stage = []
        for name in ready:
            table = by_name[name]
            if slots < 1 or table.sram_kb > sram or table.tcam_kb > tcam:
                continue
            slots -= 1
            sram -= table.sram_kb
            tcam -= table.tcam_kb
            stage.append(name)
            placed_stage[name] = stage_index
            unplaced.discard(name)
        if not stage:
            raise P4CompileError(
                "stage allocation made no progress (table too large?)"
            )
        stages.append(tuple(stage))
    return tuple(stages)


def whole_program(pairs, strategy, switch):
    """What the compiler used to return for ``pairs``, as plain values.

    Chains go through lowering steps 1–4 only, so a fragment carries its
    declared edges and hands back its partitions of exclusive tables.
    """
    dag = TableDAG()
    parser = ParseTree()
    steering = nflib.steering_table()
    dag.add_table(steering)
    ordered_scope = [steering.name]
    nf_groups = [[steering.name]]
    partitions = []
    chain_tables = {}
    chain_sets = []
    uses_nsh = False
    for graph, switch_ids in pairs:
        if switch_ids:
            fragment, chain_partitions = p4c._lower_tables(
                graph, frozenset(switch_ids), strategy
            )
        else:
            fragment, chain_partitions = p4c.ChainFragment(), []
        partitions.extend(chain_partitions)
        for tree in fragment.parse_trees:
            merge_into(parser, tree)
        if fragment.uses_nsh:
            parser.headers.add("nsh")
            uses_nsh = True
        for table in fragment.tables:
            dag.add_table(table)
        for before, after in fragment.edges:
            dag.add_edge(before, after)
        ordered_scope.extend(fragment.scope)
        nf_groups.extend(fragment.nf_groups)
        names = tuple(table.name for table in fragment.tables)
        chain_tables[graph.name] = names
        chain_sets.append(frozenset(names))

    resources = switch.stage_resources
    if strategy == "naive":
        stages = allocate_naive(
            dag, serialized_order=ordered_scope, resources=resources,
        ).stages
    else:
        # distinct chains are one more partition of exclusive sets
        partitions.append([names for names in chain_sets if names])
        exclusive = set()
        for partition in partitions:
            exclusive |= exclusive_table_pairs(partition)
        infer_dependencies(dag, ordered_scope, exclusive)
        if strategy == "conservative":
            stages = allocate_conservative(dag, nf_groups, resources).stages
        else:
            stages = rescanning_packer(dag, resources)
    return {
        "stages": stages,
        "edges": set(dag.edges),
        "chain_tables": chain_tables,
        "headers": set(parser.headers),
        "transitions": dict(parser.transitions),
        "uses_nsh": uses_nsh,
    }


def dag_packed(pairs, switch):
    """``allocate_compiler`` over the program's whole DAG, built from the
    same memoized fragments as the compiler builds it: every packing
    input derived from the DAG, none read from a fragment."""
    clear_compile_memo()
    try:
        parser = ParseTree()
        dag = TableDAG()
        dag.add_table(nflib.steering_table())
        for graph, switch_ids in pairs:
            fragment = p4c._fragment(graph, frozenset(switch_ids), "compiler")
            for tree in fragment.parse_trees:
                merge_into(parser, tree)
            for table in fragment.tables:
                dag.add_table(table)
            dag.edges |= fragment.edges
        return {"stages": allocate_compiler(dag, switch.stage_resources,
                                            switch.num_stages).stages}
    finally:
        clear_compile_memo()


def compiled(pairs, strategy, switch):
    """What the compiler returns for ``pairs`` from a cold memo."""
    clear_compile_memo()
    try:
        result = PISACompiler(switch).compile(pairs, strategy)
    finally:
        clear_compile_memo()
    return {
        "stages": result.allocation.stages,
        "edges": set(result.dag.edges),
        "chain_tables": dict(result.chain_tables),
        "headers": set(result.parser.headers),
        "transitions": dict(result.parser.transitions),
        "uses_nsh": result.uses_nsh,
    }


def outcome(run, *args):
    """``run(*args)``, or the type and arguments of the error it raised."""
    try:
        return run(*args)
    except P4CompileError as exc:
        return type(exc), exc.args


# -- inputs --------------------------------------------------------------------

#: small-chain NFs, the oversized ACL rare enough that most programs pack
SMALL_NFS = ("ACL", "Tunnel", "NAT", "LB", "BPF", "IPv4Fwd") * 3 + (
    "ACL(rules=100000)",
)


@st.composite
def small_bodies(draw):
    nfs = st.sampled_from(SMALL_NFS)
    head = draw(st.lists(nfs, min_size=1, max_size=3))
    if not draw(st.booleans()):
        return " -> ".join(head)
    arms = draw(st.lists(nfs, min_size=2, max_size=3))
    tail = draw(st.lists(nfs, max_size=2))
    return " -> ".join([*head, f"[{', '.join(arms)}]", *tail])


@st.composite
def programs(draw):
    """1–8 chains (Table-2 chains, each at most once, and small ones),
    each with a random switch subset: usually of its P4-capable NFs, now
    and then of any NF, which the compiler must refuse."""
    table2 = iter(draw(st.permutations([1, 2, 3, 4, 5])))
    pairs = []
    for index in range(draw(st.integers(1, 8))):
        canonical = next(table2, None) if draw(st.booleans()) else None
        if canonical is not None:
            chain = canonical_chain(canonical)
        else:
            (chain,) = chains_from_spec(
                f"chain s{index}: {draw(small_bodies())}"
            )
        nodes = sorted(chain.graph.nodes)
        capable = [nid for nid in nodes
                   if nflib.has_p4_nf(chain.graph.nodes[nid].nf_class)]
        pool = nodes if draw(st.integers(0, 9)) == 0 else capable
        chosen = draw(st.sets(st.sampled_from(pool))) if pool else set()
        pairs.append((chain.graph, chosen))
    return pairs


@st.composite
def table_dags(draw):
    """Up to 16 tables named out of insertion order, forward edges only."""
    n = draw(st.integers(1, 16))
    names = draw(st.permutations([f"t{i:02d}" for i in range(n)]))
    dag = TableDAG()
    for name in names:
        dag.add_table(P4Table(
            name=name,
            match_type=draw(st.sampled_from(list(MatchType))),
            size=draw(st.integers(16, 4096)),
            entry_bits=draw(st.sampled_from([16, 40, 64, 104])),
        ))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)) == 0:
                dag.add_edge(names[i], names[j])
    return dag


resources_st = st.builds(
    PISAStageResources,
    table_slots=st.integers(1, 8),
    sram_kb=st.sampled_from([64.0, 1400.0]),
    tcam_kb=st.sampled_from([8.0, 64.0]),
)

# -- the properties ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(pairs=programs(), strategy=st.sampled_from(p4c.STRATEGIES),
       slots=st.sampled_from([8, 8, 3]))
def test_program_equals_whole_program_passes(pairs, strategy, slots):
    switch = PISASwitch(stage_resources=PISAStageResources(table_slots=slots))
    got = outcome(compiled, pairs, strategy, switch)
    # --hypothesis-show-statistics prints the mix of outcomes
    if isinstance(got, tuple):
        event(f"refused: {got[1][0].split(' ')[0]}")
    else:
        event("packed, spans platforms" if got["uses_nsh"] else "packed")
    assert got == outcome(whole_program, pairs, strategy, switch)


@settings(max_examples=150, deadline=None)
@given(pairs=programs(), slots=st.sampled_from([8, 3, 1]),
       sram_kb=st.sampled_from([1400.0, 1400.0, 100.0]))
def test_fragment_fed_packer_equals_dag_packer(pairs, slots, sram_kb):
    """A program packs from its fragments' own stage facts exactly as
    ``allocate_compiler`` packs its whole DAG: the same stages, in the
    same order within each stage, or the same error."""
    switch = PISASwitch(stage_resources=PISAStageResources(
        table_slots=slots, sram_kb=sram_kb))
    got = outcome(
        lambda: {"stages": compiled(pairs, "compiler", switch)["stages"]})
    if isinstance(got, tuple):
        event(f"refused: {got[1][0].split(' ')[0]}")
    assert got == outcome(dag_packed, pairs, switch)


@settings(max_examples=100, deadline=None)
@given(dag=table_dags())
def test_heap_order_equals_sorted_list_order(dag):
    assert dag.topological_order() == sorted_list_order(dag)


@settings(max_examples=100, deadline=None)
@given(dag=table_dags(), resources=resources_st)
def test_ready_list_packer_equals_rescanning_packer(dag, resources):
    assert outcome(lambda: allocate_compiler(dag, resources).stages) == \
        outcome(rescanning_packer, dag, resources)


# -- the quadratic path stays gone ---------------------------------------------


def test_a_warm_program_evaluates_no_table_pair():
    """16 chains whose fragments are memoized pack with zero
    ``data_dependent`` calls: dependency inference happened when each
    chain lowered, and no cross-chain pair is ever looked at."""
    pairs = []
    for index in range(16):
        (chain,) = chains_from_spec(
            f"chain c{index}: ACL -> Tunnel -> IPv4Fwd"
        )
        pairs.append((chain.graph, set(chain.graph.nodes)))
    clear_compile_memo()
    compiler = PISACompiler()
    for pair in pairs:
        compiler.compile([pair])
    calls = []
    real = dependency.data_dependent
    with mock.patch.object(
        dependency, "data_dependent",
        lambda a, b: calls.append((a.name, b.name)) or real(a, b),
    ):
        result = compiler.compile(pairs)
    clear_compile_memo()
    assert len(result.chain_tables) == 16 and result.fits
    assert calls == []


def test_a_warm_program_sorts_no_dag():
    """The same 16 warm fragments pack with no topological sort: each
    fragment's depths were found when it lowered, and only the steering
    table's depth is taken over the whole program."""
    pairs = []
    for index in range(16):
        (chain,) = chains_from_spec(
            f"chain c{index}: ACL -> Tunnel -> IPv4Fwd"
        )
        pairs.append((chain.graph, set(chain.graph.nodes)))
    clear_compile_memo()
    compiler = PISACompiler()
    for pair in pairs:
        compiler.compile([pair])
    sorts = []
    real = TableDAG.topological_order
    with mock.patch.object(
        TableDAG, "topological_order",
        lambda dag: sorts.append(len(dag.tables)) or real(dag),
    ):
        result = compiler.compile(pairs)
    clear_compile_memo()
    assert len(result.chain_tables) == 16 and result.fits
    assert sorts == []
