"""NF-graph IR tests: lowering, structure queries, linearization."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.ast import NFInvocation
from repro.chain.digest import encode_public_state, graph_digest, sha256_hex
from repro.chain.graph import LinearChain, NFGraph, chains_from_spec
from repro.chain.parser import parse_spec
from repro.chain.vocabulary import default_vocabulary
from repro.exceptions import GraphError, VocabularyError


def graph_of(spec, index=0):
    return chains_from_spec(spec)[index].graph


class TestLowering:
    def test_linear(self):
        graph = graph_of("ACL -> Encrypt -> IPv4Fwd")
        assert len(graph) == 3
        assert len(graph.edges) == 2
        assert graph.nf_multiset() == ["ACL", "Encrypt", "IPv4Fwd"]

    def test_unknown_nf_rejected(self):
        with pytest.raises(VocabularyError):
            graph_of("ACL -> Bogus -> IPv4Fwd")

    def test_alias_resolution(self):
        graph = graph_of("ACL -> Encryption -> Forward")
        assert graph.nf_multiset() == ["ACL", "Encrypt", "IPv4Fwd"]

    def test_branch_and_merge(self):
        graph = graph_of("BPF -> [ACL, Monitor] -> IPv4Fwd")
        assert len(graph) == 4
        assert len(graph.branch_nodes()) == 1
        assert len(graph.merge_nodes()) == 1

    def test_passthrough_arm_edge(self):
        graph = graph_of("BPF -> [ACL, default: pass] -> IPv4Fwd")
        # BPF->ACL, ACL->Fwd, BPF->Fwd (passthrough)
        assert len(graph.edges) == 3

    def test_chain_cannot_start_with_branch(self):
        ast = parse_spec("[ACL, Monitor] -> IPv4Fwd")
        with pytest.raises(GraphError):
            NFGraph.from_pipeline(ast.pipelines[0], name="bad")


class TestStructure:
    def test_entry_exit(self):
        graph = graph_of("ACL -> Encrypt -> IPv4Fwd")
        assert len(graph.entry_nodes()) == 1
        assert len(graph.exit_nodes()) == 1

    def test_topological_order_linear(self):
        graph = graph_of("ACL -> Encrypt -> IPv4Fwd")
        order = graph.topological_order()
        assert [graph.nodes[n].nf_class for n in order] == \
            ["ACL", "Encrypt", "IPv4Fwd"]

    def test_is_branch_or_merge(self):
        graph = graph_of("BPF -> [ACL, Monitor] -> IPv4Fwd")
        (entry,) = graph.entry_nodes()
        (exit_node,) = graph.exit_nodes()
        assert graph.is_branch_or_merge(entry)
        assert graph.is_branch_or_merge(exit_node)
        for nid in graph.nodes:
            if nid not in (entry, exit_node):
                assert not graph.is_branch_or_merge(nid)


class TestFractionsAndLinearization:
    def test_node_fractions_equal_split(self):
        graph = graph_of("BPF -> [ACL, Monitor] -> IPv4Fwd")
        fractions = graph.node_fractions()
        values = sorted(fractions.values())
        assert values == pytest.approx([0.5, 0.5, 1.0, 1.0])

    def test_explicit_weights(self):
        graph = graph_of("BPF -> [ACL @ 0.8, Monitor @ 0.2] -> IPv4Fwd")
        fractions = graph.node_fractions()
        acl = next(n for n in graph.nodes.values() if n.nf_class == "ACL")
        assert fractions[acl.node_id] == pytest.approx(0.8)

    def test_merge_fraction_sums_to_one(self):
        graph = graph_of("BPF -> [ACL, Monitor, Tunnel] -> IPv4Fwd")
        fractions = graph.node_fractions()
        (exit_node,) = graph.exit_nodes()
        assert fractions[exit_node] == pytest.approx(1.0)

    def test_linearize_counts_paths(self):
        graph = graph_of("BPF -> [ACL, Monitor, Tunnel] -> IPv4Fwd")
        paths = graph.linearize()
        assert len(paths) == 3
        assert sum(p.fraction for p in paths) == pytest.approx(1.0)
        for path in paths:
            assert len(path.node_ids) == 3

    def test_linearize_linear_chain(self):
        graph = graph_of("ACL -> Encrypt -> IPv4Fwd")
        paths = graph.linearize()
        assert len(paths) == 1
        assert paths[0].fraction == 1.0


class TestChainsFromSpec:
    def test_default_slo_is_bulk(self):
        chains = chains_from_spec("ACL -> IPv4Fwd")
        assert chains[0].slo.t_min == 0.0

    def test_slo_pairing(self):
        from repro.chain.slo import SLO
        chains = chains_from_spec(
            "ACL -> IPv4Fwd\nBPF -> IPv4Fwd",
            slos=[SLO(t_min=100.0), SLO(t_min=200.0)],
        )
        assert chains[0].slo.t_min == 100.0
        assert chains[1].slo.t_min == 200.0

    def test_auto_names(self):
        chains = chains_from_spec("ACL -> IPv4Fwd\nchain z: BPF -> IPv4Fwd")
        assert chains[0].name == "chain1"
        assert chains[1].name == "z"


class TestPickle:
    def test_state_holds_no_iterator_and_numbering_resumes(self):
        graph = graph_of("chain c: BPF -> [ACL, Monitor] -> IPv4Fwd")
        graph.topological_order()
        graph_digest(graph)
        state = graph.__getstate__()
        assert not any(type(v).__module__ == "itertools"
                       for v in state.values())
        assert "_index" not in state and "_digest" not in state
        clone = pickle.loads(pickle.dumps(graph))
        vocab = default_vocabulary()
        mine = graph.add_node(NFInvocation("NAT"), vocab)
        theirs = clone.add_node(NFInvocation("NAT"), vocab)
        assert mine.node_id == theirs.node_id == "c.n4"


# -- index ≡ edge-list scans --------------------------------------------------
#
# The reference below is the edge-list scan every query used to run; the
# graph answers from its index, which must agree on every graph, after a
# pickle round trip, and between single add_node/add_edge steps.

def ref_successors(graph, nid):
    return [e.dst for e in graph.edges if e.src == nid]


def ref_predecessors(graph, nid):
    return [e.src for e in graph.edges if e.dst == nid]


def ref_topological_order(graph):
    in_degree = {nid: 0 for nid in graph.nodes}
    for edge in graph.edges:
        in_degree[edge.dst] += 1
    ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for succ in ref_successors(graph, nid):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    assert len(order) == len(graph.nodes)
    return order


def ref_node_fractions(graph, egress_aware):
    targets = {e.dst for e in graph.edges}
    fractions = {nid: 0.0 for nid in graph.nodes}
    for nid in graph.nodes:
        if nid not in targets:
            fractions[nid] = 1.0
    for nid in ref_topological_order(graph):
        outgoing = fractions[nid]
        if egress_aware:
            node = graph.nodes[nid]
            outgoing *= float(
                node.params.get("egress_ratio", node.info.egress_ratio))
        for edge in graph.edges:
            if edge.src == nid:
                fractions[edge.dst] += outgoing * edge.fraction
    return fractions


def ref_linearize(graph):
    targets = {e.dst for e in graph.edges}
    chains = []

    def walk(nid, path, fraction):
        path = path + [nid]
        out = [e for e in graph.edges if e.src == nid]
        if not out:
            chains.append(LinearChain(node_ids=path, fraction=fraction))
        for edge in out:
            walk(edge.dst, path, fraction * edge.fraction)

    for nid in graph.nodes:
        if nid not in targets:
            walk(nid, [], 1.0)
    return chains


def assert_index_matches_scans(graph):
    sources = {e.src for e in graph.edges}
    targets = {e.dst for e in graph.edges}
    for nid in list(graph.nodes) + ["no-such-node"]:
        assert graph.successors(nid) == ref_successors(graph, nid)
        assert graph.predecessors(nid) == ref_predecessors(graph, nid)
        assert graph.out_edges(nid) == [e for e in graph.edges if e.src == nid]
        assert graph.in_edges(nid) == [e for e in graph.edges if e.dst == nid]
        assert graph.is_branch_or_merge(nid) == (
            len(ref_successors(graph, nid)) > 1
            or len(ref_predecessors(graph, nid)) > 1)
    for src, dst in itertools.product(graph.nodes, repeat=2):
        assert graph.is_sole_edge(src, dst) == (
            ref_successors(graph, src) == [dst]
            and ref_predecessors(graph, dst) == [src])
    assert graph.entry_nodes() == [n for n in graph.nodes if n not in targets]
    assert graph.exit_nodes() == [n for n in graph.nodes if n not in sources]
    assert graph.branch_nodes() == [
        n for n in graph.nodes if len(ref_successors(graph, n)) > 1]
    assert graph.merge_nodes() == [
        n for n in graph.nodes if len(ref_predecessors(graph, n)) > 1]
    assert graph.topological_order() == ref_topological_order(graph)
    for egress_aware in (False, True):
        # exact float equality: the same sums in the same order
        assert graph.node_fractions(egress_aware) == \
            ref_node_fractions(graph, egress_aware)
    assert graph.linearize() == ref_linearize(graph)
    # answers are copies: mutating one never reaches the next caller
    graph.topological_order().clear()
    graph.node_fractions().clear()
    graph.linearize()[0].node_ids.clear()
    if graph.nodes:
        graph.successors(next(iter(graph.nodes))).append("junk")
    assert graph.topological_order() == ref_topological_order(graph)
    assert graph.node_fractions() == ref_node_fractions(graph, False)
    assert graph.linearize() == ref_linearize(graph)
    assert all(graph.successors(n) == ref_successors(graph, n)
               for n in graph.nodes)


def generic_digest(graph):
    pieces = []
    encode_public_state(graph, pieces)
    return sha256_hex(pieces)


NF_NAMES = st.sampled_from(
    ["ACL", "Encrypt", "Monitor", "BPF", "Dedup", "LB", "NAT", "Tunnel"])


@st.composite
def nf_calls(draw):
    name = draw(NF_NAMES)
    if draw(st.integers(0, 4)) == 0:
        ratio = draw(st.sampled_from([0.25, 0.5]))
        return f"{name}(egress_ratio={ratio})"
    return name


@st.composite
def pipelines(draw, depth):
    """``NF (-> NF | -> [arms])*``: arms of one NF or a sub-pipeline, or
    ``pass``; weights explicit or implicit; a shared tail or none."""
    items = [draw(nf_calls())]
    for _ in range(draw(st.integers(0, 3))):
        if depth > 0 and draw(st.booleans()):
            items.append(draw(branches(depth)))
        else:
            items.append(draw(nf_calls()))
    return " -> ".join(items)


@st.composite
def branches(draw, depth):
    arms = []
    for index in range(draw(st.integers(1, 3))):
        body = ("pass" if draw(st.integers(0, 3)) == 0
                else draw(pipelines(depth - 1)))
        if draw(st.integers(0, 2)) == 0:
            body += f" @ {draw(st.sampled_from([0.1, 0.2, 0.3]))}"
        if draw(st.integers(0, 3)) == 0:
            body = f"{{'vlan_tag': {index}}}: {body}"
        arms.append(body)
    return "[" + ", ".join(arms) + "]"


@settings(max_examples=60, deadline=None)
@given(pipeline=pipelines(depth=2))
def test_index_answers_equal_edge_list_scans(pipeline):
    graph = graph_of(f"chain g: {pipeline}")
    assert_index_matches_scans(graph)
    assert graph_digest(graph) == generic_digest(graph)

    clone = pickle.loads(pickle.dumps(graph))
    assert clone._index is None
    assert_index_matches_scans(clone)
    assert graph_digest(clone) == graph_digest(graph)

    # rebuilt one mutation at a time, queried in between: a stale index
    # or digest would answer for the previous step
    vocab = default_vocabulary()
    stepwise = NFGraph(name=graph.name)
    for node in graph.nodes.values():
        stepwise.add_node(NFInvocation(node.nf_class, node.instance_name,
                                       node.params), vocab)
        assert_index_matches_scans(stepwise)
        assert graph_digest(stepwise) == generic_digest(stepwise)
    for edge in graph.edges:
        stepwise.add_edge(edge.src, edge.dst, edge.condition, edge.fraction)
        assert_index_matches_scans(stepwise)
        assert graph_digest(stepwise) == generic_digest(stepwise)
    assert graph_digest(stepwise) == graph_digest(graph)
