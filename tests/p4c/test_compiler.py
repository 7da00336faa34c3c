"""PISA compiler integration tests, including the paper's calibration
points (10-vs-11 NAT, conservative=14, naive~27, optimization effects)."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.exceptions import P4CompileError
from repro.experiments.chains import nat_stress_chain
from repro.hw.pisa import PISASwitch
from repro.p4c.compiler import PISACompiler


def all_on_switch(chain):
    return (chain.graph, set(chain.graph.nodes))


class TestNATCalibration:
    """§5.2's extreme configuration numbers."""

    def test_ten_nats_fit_twelve_stages(self):
        result = PISACompiler().compile([all_on_switch(nat_stress_chain(10))])
        assert result.stage_count == 12
        assert result.fits

    def test_eleven_nats_do_not_fit(self):
        result = PISACompiler().compile([all_on_switch(nat_stress_chain(11))])
        assert not result.fits

    def test_conservative_estimate_is_fourteen(self):
        """Paper: 'it estimated 14 stages, while the compiler could fit
        these into 12'."""
        result = PISACompiler().compile(
            [all_on_switch(nat_stress_chain(10))], strategy="conservative"
        )
        assert result.stage_count == 14

    def test_naive_codegen_wastes_stages(self):
        """Paper: 'without [dependency elimination] the 10-NAT placement
        would have required 27 stages'."""
        result = PISACompiler().compile(
            [all_on_switch(nat_stress_chain(10))], strategy="naive"
        )
        assert result.stage_count >= 24

    def test_ten_plus_one_server_fits(self):
        chain = nat_stress_chain(11)
        order = chain.graph.topological_order()
        nats = [n for n in order
                if chain.graph.nodes[n].nf_class == "NAT"]
        switch_ids = set(chain.graph.nodes) - {nats[-1]}
        result = PISACompiler().compile([(chain.graph, switch_ids)])
        assert result.fits
        assert result.uses_nsh


class TestNSHOptimizations:
    def test_all_switch_chain_has_no_nsh_tables(self):
        """Optimization (a): no NSH for chains entirely on the switch."""
        chain = chains_from_spec("chain c: ACL -> Tunnel -> IPv4Fwd")[0]
        result = PISACompiler().compile([all_on_switch(chain)])
        assert not result.uses_nsh
        names = {t.name for t in result.dag.tables}
        assert not any("nsh" in n for n in names)

    def test_spanning_chain_gets_encap_decap(self):
        chain = chains_from_spec("chain c: ACL -> Encrypt -> IPv4Fwd")[0]
        switch_ids = {
            nid for nid in chain.graph.nodes
            if chain.graph.nodes[nid].nf_class != "Encrypt"
        }
        result = PISACompiler().compile([(chain.graph, switch_ids)])
        assert result.uses_nsh
        names = {t.name for t in result.dag.tables}
        assert any("nsh_encap" in n for n in names)
        assert any("nsh_decap" in n for n in names)

    def test_nsh_tables_cost_at_most_two_extra_tables(self):
        chain_all = chains_from_spec("chain c: ACL -> Tunnel -> IPv4Fwd")[0]
        chain_span = chains_from_spec("chain c: ACL -> Encrypt -> Tunnel "
                                      "-> IPv4Fwd")[0]
        switch_ids = {
            nid for nid in chain_span.graph.nodes
            if chain_span.graph.nodes[nid].nf_class != "Encrypt"
        }
        all_result = PISACompiler().compile([all_on_switch(chain_all)])
        span_result = PISACompiler().compile([(chain_span.graph, switch_ids)])
        assert len(span_result.dag.tables) == len(all_result.dag.tables) + 2


class TestBranchExclusivity:
    def test_parallel_branches_pack(self):
        """Optimization (d): sibling arms share stages."""
        branched = chains_from_spec(
            "chain c: BPF -> [ACL, ACL, ACL] -> IPv4Fwd"
        )[0]
        serial = chains_from_spec(
            "chain c: BPF -> ACL -> ACL -> ACL -> IPv4Fwd"
        )[0]
        b = PISACompiler().compile([all_on_switch(branched)])
        s = PISACompiler().compile([all_on_switch(serial)])
        # three parallel ACLs pack into one layer; serial ones cannot
        # (write-write dependency on drop metadata serializes them)
        assert b.stage_count < s.stage_count

    def test_cross_chain_packing(self):
        """Distinct chains share stages (disjoint aggregates)."""
        c1 = chains_from_spec("chain a: ACL -> IPv4Fwd")[0]
        c2 = chains_from_spec("chain b: ACL -> IPv4Fwd")[0]
        single = PISACompiler().compile([all_on_switch(c1)])
        both = PISACompiler().compile(
            [all_on_switch(c1), all_on_switch(c2)]
        )
        assert both.stage_count == single.stage_count


class TestUnifiedParser:
    def test_parser_covers_all_nf_headers(self):
        chain = chains_from_spec("chain c: Detunnel -> NAT -> IPv4Fwd")[0]
        result = PISACompiler().compile([all_on_switch(chain)])
        assert "vlan" in result.parser.headers
        assert "ipv4" in result.parser.headers

    def test_nsh_header_added_when_spanning(self):
        chain = chains_from_spec("chain c: ACL -> Encrypt -> IPv4Fwd")[0]
        switch_ids = {
            nid for nid in chain.graph.nodes
            if chain.graph.nodes[nid].nf_class != "Encrypt"
        }
        result = PISACompiler().compile([(chain.graph, switch_ids)])
        assert "nsh" in result.parser.headers


class TestMisc:
    def test_empty_assignment(self):
        chain = chains_from_spec("chain c: ACL -> IPv4Fwd")[0]
        result = PISACompiler().compile([(chain.graph, set())])
        assert result.chain_tables["c"] == ()
        # steering table only
        assert result.stage_count == 1

    def test_fits_helper(self):
        compiler = PISACompiler(PISASwitch(num_stages=12))
        assert compiler.fits([all_on_switch(nat_stress_chain(10))])
        assert not compiler.fits([all_on_switch(nat_stress_chain(11))])

    def test_unknown_strategy(self):
        chain = chains_from_spec("chain c: ACL -> IPv4Fwd")[0]
        with pytest.raises(P4CompileError):
            PISACompiler().compile([all_on_switch(chain)],
                                   strategy="magic")

    def test_no_p4_impl_rejected(self):
        chain = chains_from_spec("chain c: Encrypt -> IPv4Fwd")[0]
        with pytest.raises(P4CompileError):
            PISACompiler().compile([all_on_switch(chain)])
