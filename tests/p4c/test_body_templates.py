"""A chain arriving under a new name costs a rename, and a program that
extends a memoized one by a chain costs that chain's fragment.

Fragments are lowered once per body (graph without its name, switch node
ids relative to it, strategy) under a placeholder name; every chain with
that body gets the template with its own name substituted. A program
whose chains minus the last were packed before is folded from that
program's state. Both must be invisible: a renamed fragment is the
fresh lowering of the chain, and an extended program is the program
assembled from scratch, or raises the same error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.digest import body_digest, graph_digest
from repro.chain.graph import chains_from_spec
from repro.exceptions import P4CompileError
from repro.experiments.chains import _CHAIN_SPECS
from repro.hw.pisa import PISAStageResources, PISASwitch
from repro.obs import MetricsRegistry, scoped_registry
from repro.p4c import compiler as p4c
from repro.p4c import nflib
from repro.p4c.compiler import PISACompiler, clear_compile_memo

#: the Table-2 chains (branches, merges, NSH spans), the fabric body and
#: the serve menu, plus an oversized table and a branch with a server arm
BODIES = tuple(
    spec.split(":", 1)[1].strip() for spec in _CHAIN_SPECS.values()
) + (
    "ACL(rules=64) -> Encrypt -> IPv4Fwd",
    "Monitor -> IPv4Fwd",
    "ACL -> IPv4Fwd",
    "ACL -> Monitor -> IPv4Fwd",
    "BPF -> IPv4Fwd",
    "ACL -> Encrypt -> IPv4Fwd",
    "BPF -> NAT -> IPv4Fwd",
    "ACL(rules=100000) -> IPv4Fwd",
    "BPF -> [{'dst_port': 80}: NAT, default: Encrypt] -> Tunnel",
)

#: each pair: a name, and one with it as a prefix
NAME_PAIRS = (("c1", "c12"), ("c12", "c1"), ("c1", "c1_n0"),
              ("c1_n0", "c1"), ("a", "b"), ("chain1", "chain10"))


@pytest.fixture(autouse=True)
def cold_memo():
    clear_compile_memo()
    yield
    clear_compile_memo()


def chain(name, body):
    (parsed,) = chains_from_spec(f"chain {name}: {body}")
    return parsed


def lookups(registry, result, unit="fragment"):
    return registry.counter(
        "p4c.compile.lookups", unit=unit, result=result
    ).value


def fragment_fields(fragment):
    """Every field of a fragment as plain values, sets sorted; the stage
    facts keep their table order."""
    facts = fragment.packing
    return {
        "tables": [(t.name, t.match_type, t.size, t.entry_bits,
                    sorted(t.reads), sorted(t.writes))
                   for t in fragment.tables],
        "scope": fragment.scope,
        "edges": sorted(fragment.edges),
        "nf_groups": fragment.nf_groups,
        "parse_trees": [(tree.root, sorted(tree.headers),
                         list(tree.transitions.items()))
                        for tree in fragment.parse_trees],
        "uses_nsh": fragment.uses_nsh,
        "table_names": fragment.table_names,
        "sizes": list(facts.sizes.items()),
        "priority": list(facts.priority.items()),
        "waiting": list(facts.waiting.items()),
        "succs": [(name, sorted(succs))
                  for name, succs in facts.succs.items()],
        "root_succs": sorted(facts.root_succs),
        "root_depth": facts.root_depth,
        "largest": facts.largest,
    }


def capable(graph):
    """The chain's nodes with a P4 implementation."""
    return sorted(nid for nid, node in graph.nodes.items()
                  if nflib.has_p4_nf(node.nf_class))


@st.composite
def switch_parts(draw, graph):
    """A random set of the chain's P4-capable nodes (by relative id)."""
    nodes = capable(graph)
    cut = len(graph.name) + 1
    chosen = draw(st.sets(st.sampled_from(nodes))) if nodes else set()
    return {nid[cut:] for nid in chosen}


@settings(max_examples=120, deadline=None)
@given(data=st.data(), body=st.sampled_from(BODIES),
       names=st.sampled_from(NAME_PAIRS),
       strategy=st.sampled_from(p4c.STRATEGIES))
def test_renamed_template_equals_fresh_lowering(data, body, names,
                                                strategy):
    first, second = chain(names[0], body), chain(names[1], body)
    relative = data.draw(switch_parts(first.graph))
    if not relative:
        return
    ids = {name: frozenset(f"{name}.{nid}" for nid in relative)
           for name in names}
    clear_compile_memo()
    with scoped_registry(MetricsRegistry()) as registry:
        p4c._fragment(first.graph, ids[names[0]], strategy)
        renamed = p4c._fragment(second.graph, ids[names[1]], strategy)
        assert lookups(registry, "miss") == 1
        assert lookups(registry, "renamed") == 1
    fresh = p4c._lower_chain(second.graph, ids[names[1]], strategy)
    assert fragment_fields(renamed) == fragment_fields(fresh)


def test_body_digest_leaves_the_name_out():
    one, other = chain("c1", BODIES[0]).graph, chain("c12", BODIES[0]).graph
    assert body_digest(one) == body_digest(other)
    assert graph_digest(one) != graph_digest(other)
    assert body_digest(one) != body_digest(chain("c1", BODIES[1]).graph)
    # memoized on the graph like graph_digest, and left out of pickles
    assert one._body_digest == body_digest(one)
    assert "_body_digest" not in one.__getstate__()


def test_a_new_name_for_a_known_body_is_renamed_once():
    compiler = PISACompiler()
    base = chain("c0", BODIES[5])
    compiler.compile([(base.graph, capable(base.graph))])
    arriving = chain("c1", BODIES[5])
    with scoped_registry(MetricsRegistry()) as registry:
        for _ in range(3):
            compiler.compile([(arriving.graph, capable(arriving.graph))])
        PISACompiler(PISASwitch(num_stages=4)).compile(
            [(arriving.graph, capable(arriving.graph))])
        assert lookups(registry, "renamed") == 1
        assert lookups(registry, "miss") == 0
        assert lookups(registry, "hit") == 1


def test_clear_compile_memo_forgets_templates():
    compiler = PISACompiler()
    first = chain("c0", BODIES[5])
    compiler.compile([(first.graph, capable(first.graph))])
    assert len(p4c._memo) == 3  # template, fragment, program
    clear_compile_memo()
    assert len(p4c._memo) == 0
    second = chain("c1", BODIES[5])
    with scoped_registry(MetricsRegistry()) as registry:
        compiler.compile([(second.graph, capable(second.graph))])
        assert lookups(registry, "miss") == 1
        assert lookups(registry, "renamed") == 0


# -- programs extended by one chain --------------------------------------------

#: what may sit in a program: small bodies, a Table-2 chain, an oversized
#: table; names repeat now and then, so tables collide
PROGRAM_BODIES = BODIES[:2] + BODIES[5:]


@st.composite
def programs(draw):
    pairs = []
    for _ in range(draw(st.integers(2, 6))):
        name = f"c{draw(st.integers(0, 9))}"
        graph = chain(name, draw(st.sampled_from(PROGRAM_BODIES))).graph
        nodes = capable(graph)
        chosen = draw(st.sets(st.sampled_from(nodes))) if nodes else set()
        pairs.append((graph, chosen))
    return pairs


def outcome(compiler, pairs, strategy):
    """A compile as plain values, or its error's type and message."""
    try:
        result = compiler.compile(pairs, strategy)
    except P4CompileError as exc:
        return type(exc), exc.args
    return {
        "stages": result.allocation.stages,
        "fits": result.fits,
        "headers": sorted(result.parser.headers),
        "transitions": list(result.parser.transitions.items()),
        "tables": list(result.dag.tables),
        "edges": sorted(result.dag.edges),
        "chain_tables": list(result.chain_tables.items()),
        "uses_nsh": result.uses_nsh,
    }


def assembly_state(program):
    """Everything a memoized program holds, as plain values."""
    assembly = program.assembly
    facts = assembly.facts
    return {
        "result": id(program.result),
        "parser": (sorted(assembly.parser.headers),
                   list(assembly.parser.transitions.items())),
        "tables": list(assembly.tables),
        "names": sorted(assembly.names),
        "edges": sorted(assembly.edges),
        "scope": list(assembly.scope),
        "nf_groups": [tuple(group) for group in assembly.nf_groups],
        "chain_tables": list(assembly.chain_tables.items()),
        "uses_nsh": assembly.uses_nsh,
        "facts": (list(facts.sizes.items()), list(facts.priority.items()),
                  list(facts.waiting.items()),
                  [(name, list(succs)) for name, succs in facts.succs.items()],
                  facts.largest),
        "fragments": [key for key, _ in assembly.fragments],
    }


def memoized_program(switch, pairs, strategy):
    resources = switch.stage_resources
    key = (switch.num_stages, resources.table_slots, resources.sram_kb,
           resources.tcam_kb, strategy,
           tuple((graph_digest(graph), frozenset(ids))
                 for graph, ids in pairs))
    return p4c._memo.get("program", key)


@settings(max_examples=150, deadline=None)
@given(pairs=programs(), strategy=st.sampled_from(p4c.STRATEGIES),
       slots=st.sampled_from([8, 8, 2]))
def test_extended_program_equals_program_from_scratch(pairs, strategy,
                                                       slots):
    switch = PISASwitch(stage_resources=PISAStageResources(table_slots=slots))
    compiler = PISACompiler(switch)
    clear_compile_memo()
    parent = outcome(compiler, pairs[:-1], strategy)
    entry = memoized_program(switch, pairs[:-1], strategy)
    before = None if isinstance(parent, tuple) else assembly_state(entry)
    with scoped_registry(MetricsRegistry()) as registry:
        extended = outcome(compiler, pairs, strategy)
        if before is not None and pairs[-1][1]:
            # only the last chain's fragment is asked for
            assert sum(lookups(registry, result)
                       for result in ("hit", "renamed", "miss")) == 1
    if before is not None:
        assert assembly_state(entry) == before
    clear_compile_memo()
    assert extended == outcome(compiler, pairs, strategy)


def test_extension_raises_what_the_whole_program_raises():
    compiler = PISACompiler()
    keep = chain("keep", "ACL -> IPv4Fwd")
    twin = chain("keep", "ACL -> IPv4Fwd")
    big = chain("big", "ACL(rules=100000) -> IPv4Fwd")
    context = [(keep.graph, set(keep.graph.nodes))]
    for last, message in ((twin, "duplicate table name 'keep_n0_acl'"),
                          (big, "table 'big_n0_acl' exceeds a whole stage")):
        clear_compile_memo()
        compiler.compile(context)
        program = context + [(last.graph, set(last.graph.nodes))]
        with pytest.raises(P4CompileError, match=message) as extended:
            compiler.compile(program)
        clear_compile_memo()
        with pytest.raises(P4CompileError) as cold:
            compiler.compile(program)
        assert extended.value.args == cold.value.args


def test_pinned_fragments_stay_resident_through_extensions():
    """A rack of four chains probes far more arrivals than the memo
    holds, each extending the rack's program; a departure then reads
    every pinned fragment from the memo (no lowering, no rename)."""
    compiler = PISACompiler()
    rack = [chain(f"c{index}", BODIES[7 + 3 * (index % 2)])
            for index in range(4)]
    context = [(c.graph, capable(c.graph)) for c in rack]
    compiler.compile(context)
    for index in range(2 * p4c._CompileMemo.CAPACITY):
        arriving = chain(f"n{index}", BODIES[7 + index % 4])
        compiler.compile(context + [(arriving.graph, capable(arriving.graph))])
    with scoped_registry(MetricsRegistry()) as registry:
        compiler.compile(context[:1] + context[2:])
        assert lookups(registry, "hit") == 3
        assert lookups(registry, "renamed") == 0
        assert lookups(registry, "miss") == 0
