"""The process-wide compile memo: a warm compile is a cold compile.

Chains lower into fragments keyed by content (graph digest, switch node
set, strategy) and packed programs are memoized on the ordered fragment
keys plus the switch's stage budget. Nothing a caller can observe may
depend on whether the memo was warm.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.graph import chains_from_spec
from repro.exceptions import P4CompileError, ParserMergeConflict
from repro.hw.pisa import PISASwitch
from repro.metacompiler.p4gen import render_p4
from repro.metacompiler.routing import RoutingPlan
from repro.obs import MetricsRegistry, scoped_registry
from repro.p4c import compiler as p4c
from repro.p4c import nflib
from repro.p4c.compiler import (
    ContextCompiler,
    PISACompiler,
    clear_compile_memo,
)
from repro.p4c.ir import P4Table, ethernet_ipv4_tree

BODIES = (
    "ACL -> IPv4Fwd",
    "BPF -> NAT -> IPv4Fwd",
    "ACL -> Tunnel -> IPv4Fwd",
    "ACL -> Encrypt -> IPv4Fwd",
    "BPF -> [{'dst_port': 80}: NAT, default: LB] -> IPv4Fwd",
    "ACL -> [{'vlan_tag': 0x1, Encrypt}] -> Detunnel -> IPv4Fwd",
    "Monitor -> LB -> IPv4Fwd",
)


@pytest.fixture(autouse=True)
def cold_memo():
    clear_compile_memo()
    yield
    clear_compile_memo()


def observable(result):
    """Everything a caller can read off a compile, as plain values."""
    return {
        "stages": result.allocation.stages,
        "available": result.allocation.available_stages,
        "strategy": result.allocation.strategy,
        "chain_tables": dict(result.chain_tables),
        "headers": sorted(result.parser.headers),
        "transitions": sorted(result.parser.transitions.items(),
                              key=repr),
        "uses_nsh": result.uses_nsh,
        "tables": list(result.dag.tables),
        "edges": sorted(result.dag.edges),
        "p4": render_p4(result, RoutingPlan(), []).program_text,
    }


def outcome(compiler, pairs, strategy):
    try:
        return observable(compiler.compile(pairs, strategy))
    except P4CompileError as exc:
        return (type(exc), exc.args)


def lookups(registry, unit, result):
    return registry.counter(
        "p4c.compile.lookups", unit=unit, result=result
    ).value


@st.composite
def programs(draw):
    """A chain set with a random switch-resident subset per chain."""
    bodies = draw(st.lists(st.sampled_from(BODIES), min_size=1, max_size=5))
    pairs = []
    for index, body in enumerate(bodies):
        (chain,) = chains_from_spec(f"chain c{index}: {body}")
        hardware = sorted(
            nid for nid, node in chain.graph.nodes.items()
            if nflib.has_p4_nf(node.nf_class)
        )
        chosen = draw(st.sets(st.sampled_from(hardware))) if hardware \
            else set()
        pairs.append((chain.graph, chosen))
    return pairs


@settings(max_examples=40, deadline=None)
@given(first=programs(), second=programs(),
       strategy=st.sampled_from(p4c.STRATEGIES))
def test_warm_compile_equals_cold_compile(first, second, strategy):
    compiler = PISACompiler()
    clear_compile_memo()
    # warm the memo with an unrelated program, the program itself, and a
    # program sharing this one's chains in another order
    outcome(compiler, first, strategy)
    outcome(compiler, second, strategy)
    outcome(compiler, list(reversed(second)), strategy)
    warm = outcome(compiler, second, strategy)
    clear_compile_memo()
    assert warm == outcome(compiler, second, strategy)


def test_same_program_is_packed_once_across_callers():
    """The heuristic's probe, switch_fit and the meta-compiler each build
    their own compiler; they share one packed program."""
    (chain,) = chains_from_spec("chain c: ACL -> NAT -> IPv4Fwd")
    pair = (chain.graph, set(chain.graph.nodes))
    with scoped_registry(MetricsRegistry()) as registry:
        first = PISACompiler().compile([pair])
        again = PISACompiler(PISASwitch()).compile(
            [(chain.graph, frozenset(chain.graph.nodes))]
        )
        assert again is first
        assert lookups(registry, "program", "miss") == 1
        assert lookups(registry, "program", "hit") == 1
        assert lookups(registry, "fragment", "miss") == 1
        # a smaller switch is another program over the same fragment
        small = PISACompiler(PISASwitch(num_stages=1)).compile([pair])
        assert small is not first and not small.fits
        assert lookups(registry, "fragment", "hit") == 1


def test_context_compiler_lowers_only_the_delta():
    pinned = chains_from_spec(
        "chain a: ACL -> IPv4Fwd\nchain b: BPF -> NAT -> IPv4Fwd"
    )
    (delta,) = chains_from_spec("chain d: ACL -> Tunnel -> IPv4Fwd")
    context = [(c.graph, set(c.graph.nodes)) for c in pinned]
    PISACompiler().compile(context)
    with scoped_registry(MetricsRegistry()) as registry:
        compiler = ContextCompiler(PISASwitch(), context)
        result = compiler.compile([(delta.graph, set(delta.graph.nodes))])
        # the pinned program is extended by the delta's fragment: the
        # pinned chains' fragments are not even looked up
        assert lookups(registry, "fragment", "hit") == 0
        assert lookups(registry, "fragment", "miss") == 1
    assert list(result.chain_tables) == ["a", "b", "d"]
    clear_compile_memo()
    assert observable(result) == observable(PISACompiler().compile(
        context + [(delta.graph, set(delta.graph.nodes))]
    ))


def test_reused_name_with_a_different_body_is_a_different_fragment():
    """depart c7, then arrive a *different* chain named c7."""
    compiler = PISACompiler()
    (old,) = chains_from_spec("chain c7: ACL -> IPv4Fwd")
    (new,) = chains_from_spec("chain c7: BPF -> NAT -> IPv4Fwd")
    (other,) = chains_from_spec("chain keep: ACL -> IPv4Fwd")

    def program(chain):
        return [(other.graph, set(other.graph.nodes)),
                (chain.graph, set(chain.graph.nodes))]

    compiler.compile(program(old))
    with scoped_registry(MetricsRegistry()) as registry:
        warm = compiler.compile(program(new))
        assert lookups(registry, "fragment", "miss") == 1  # c7's new body
        assert lookups(registry, "fragment", "hit") == 1   # keep
    assert any("nat" in name for name in warm.chain_tables["c7"])
    clear_compile_memo()
    assert observable(warm) == observable(compiler.compile(program(new)))


class TestNegativeResults:
    def test_oversized_table_is_not_relowered_on_retry(self, monkeypatch):
        (chain,) = chains_from_spec(
            "chain big: ACL(rules=100000) -> IPv4Fwd"
        )
        pair = (chain.graph, set(chain.graph.nodes))
        lowered = []
        real = p4c._lower_chain
        monkeypatch.setattr(
            p4c, "_lower_chain",
            lambda *args: lowered.append(args) or real(*args),
        )
        compiler = PISACompiler()
        with pytest.raises(P4CompileError, match="whole stage") as first:
            compiler.compile([pair])
        with pytest.raises(P4CompileError, match="whole stage") as again:
            compiler.compile([pair])
        assert len(lowered) == 1
        assert again.value is not first.value
        assert again.value.args == first.value.args
        assert not compiler.fits([pair])

    def test_parser_conflict_is_memoized_with_its_type(self, monkeypatch):
        def conflicting(instance, params=None):
            tree = ethernet_ipv4_tree()
            tree.transitions[("ethernet", "ethertype", 0x0800)] = "vlan"
            tree.headers.add("vlan")
            return nflib._single_table_nf(
                instance, P4Table(name=f"{instance}_odd"), tree
            )

        monkeypatch.setitem(nflib._FACTORIES, "BPF", conflicting)
        chains = chains_from_spec(
            "chain a: ACL -> IPv4Fwd\nchain b: BPF -> IPv4Fwd"
        )
        pairs = [(c.graph, set(c.graph.nodes)) for c in chains]
        compiler = PISACompiler()
        with scoped_registry(MetricsRegistry()) as registry:
            for _ in range(3):
                with pytest.raises(ParserMergeConflict, match="ethertype"):
                    compiler.compile(pairs)
            assert lookups(registry, "program", "miss") == 1
            assert lookups(registry, "program", "hit") == 2
            assert lookups(registry, "fragment", "miss") == 2

    def test_unknown_strategy_is_rejected_before_any_work(self):
        (chain,) = chains_from_spec("chain c: ACL -> IPv4Fwd")
        with scoped_registry(MetricsRegistry()) as registry:
            with pytest.raises(P4CompileError, match="unknown allocation"):
                PISACompiler().compile(
                    [(chain.graph, set(chain.graph.nodes))], "optimal"
                )
            assert lookups(registry, "program", "miss") == 0


class TestSharedResultIsImmutable:
    def test_every_mutator_raises(self):
        (chain,) = chains_from_spec("chain c: ACL -> NAT -> IPv4Fwd")
        result = PISACompiler().compile(
            [(chain.graph, set(chain.graph.nodes) - {"c.n1"})]
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.uses_nsh = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.allocation.stages = ()
        with pytest.raises((AttributeError, TypeError)):
            result.allocation.stages[0].append("x")
        with pytest.raises(AttributeError):
            result.dag.add_table(P4Table(name="intruder"))
        with pytest.raises(AttributeError):
            result.dag.add_edge("lemur_steering", "c_n0_acl")
        with pytest.raises(AttributeError):
            result.parser.add_transition("ethernet", "ethertype", 1, "x")
        with pytest.raises(AttributeError):
            result.chain_tables["c"].append("x")

    def test_memo_is_bounded(self):
        compiler = PISACompiler()
        for index in range(p4c._CompileMemo.CAPACITY):
            (chain,) = chains_from_spec(f"chain c{index}: ACL -> IPv4Fwd")
            compiler.compile([(chain.graph, set(chain.graph.nodes))])
        assert len(p4c._memo) == p4c._CompileMemo.CAPACITY
