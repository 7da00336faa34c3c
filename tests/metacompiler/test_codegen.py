"""Code generation tests: P4, BESS, eBPF, OpenFlow backends + stats."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.metacompiler.codestats import CodegenStats, count_lines
from repro.metacompiler.compiler import MetaCompiler
from repro.metacompiler.p4pre import parse_standalone_nf
from repro.metacompiler.p4gen import render_standalone_nf
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def compile_spec(spec, profiles, topology=None, slos=None):
    topology = topology or topology_for("paper-testbed").build()
    chains = chains_from_spec(
        spec, slos=slos or [SLO(t_min=gbps(0.5), t_max=gbps(50))]
    )
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    return placement, meta.compile_placement(placement)


class TestP4Gen:
    def test_program_has_all_sections(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        text = artifacts.p4.program_text
        assert "header_type ethernet_t" in text
        assert "parser parse_ethernet" in text
        assert "table lemur_steering" in text
        assert "control ingress" in text
        assert "table_add lemur_steering" in text

    def test_stage_layout_in_control_block(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        assert "// stage 1" in artifacts.p4.program_text

    def test_standalone_sources_emitted(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        assert len(artifacts.p4.nf_sources) == 2  # ACL + IPv4Fwd
        for source in artifacts.p4.nf_sources.values():
            assert source.startswith("@nf ")

    def test_steering_vs_nf_line_split(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        assert artifacts.p4.steering_lines > 0
        assert artifacts.p4.nf_lines > 0


class TestP4Preprocessor:
    def test_roundtrip_through_extended_syntax(self):
        from repro.p4c.nflib import make_p4_nf
        for nf_class in ("ACL", "NAT", "LB", "IPv4Fwd", "Tunnel", "BPF"):
            original = make_p4_nf(nf_class, f"{nf_class.lower()}0")
            text = render_standalone_nf(original)
            parsed = parse_standalone_nf(text)
            assert parsed.name == original.name
            assert {t.name for t in parsed.dag.tables} == \
                {t.name for t in original.dag.tables}
            assert parsed.dag.edges == original.dag.edges
            assert parsed.parse_tree.transitions == \
                original.parse_tree.transitions
            for t_orig in original.dag.tables:
                t_new = parsed.dag.table(t_orig.name)
                assert t_new.match_type == t_orig.match_type
                assert t_new.size == t_orig.size
                assert t_new.reads == t_orig.reads
                assert t_new.writes == t_orig.writes

    def test_missing_name_rejected(self):
        from repro.exceptions import P4CompileError
        with pytest.raises(P4CompileError):
            parse_standalone_nf("headers { ethernet }\n"
                                "table t { match_type: exact }\n"
                                "control { t }")

    def test_no_tables_rejected(self):
        from repro.exceptions import P4CompileError
        with pytest.raises(P4CompileError):
            parse_standalone_nf("@nf empty\nheaders { ethernet }")

    def test_bad_statement_rejected(self):
        from repro.exceptions import P4CompileError
        with pytest.raises(P4CompileError):
            parse_standalone_nf("@nf x\nwizardry { }")


class TestBessGen:
    def test_script_structure(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        script = artifacts.bess["server0"]
        text = script.render()
        assert "PortInc" in text
        assert "NSHdecap" in text
        assert "SubgroupDemux" in text
        assert "demux.register(spi=" in text
        assert "bess.attach_task" in text

    def test_replicated_subgroup_instances(self, profiles):
        placement, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles,
            slos=[SLO(t_min=gbps(5), t_max=gbps(40))],
        )
        script = artifacts.bess["server0"]
        (sg,) = script.subgroups
        assert sg.instances >= 3  # 5 Gbps needs several Encrypt cores
        assert len(sg.cores) == sg.instances
        assert 0 not in sg.cores  # core 0 is the demux core

    def test_rate_limit_attached_for_bounded_tmax(self, profiles):
        _p, artifacts = compile_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles,
            slos=[SLO(t_min=gbps(1), t_max=gbps(10))],
        )
        (sg,) = artifacts.bess["server0"].subgroups
        assert sg.rate_limit_mbps == pytest.approx(gbps(10))


class TestEbpfGen:
    def test_smartnic_program_generated_and_verified(self, profiles):
        topology = topology_for("paper-smartnic").build()
        _p, artifacts = compile_spec(
            "chain a: BPF -> FastEncrypt -> IPv4Fwd", profiles,
            topology=topology,
        )
        assert "agilio0" in artifacts.ebpf
        program, nf_specs = artifacts.ebpf["agilio0"]
        assert program.instructions <= 4096
        assert not program.has_back_edges
        assert program.unrolled_loops > 0  # ChaCha rounds unrolled
        assert nf_specs[0][0] == "FastEncrypt"
        assert "XDP_DROP" in program.source


class TestOpenFlowGen:
    def test_rules_generated_for_of_topology(self, profiles):
        from repro.chain.vocabulary import default_vocabulary
        topology = topology_for("paper-openflow").build()
        # Detunnel (vlan table) precedes ACL in the fixed pipeline order
        chains = chains_from_spec(
            "chain a: Detunnel -> Encrypt -> ACL",
            slos=[SLO(t_min=100.0, t_max=gbps(9))],
        )
        placement = heuristic_place(chains, topology, profiles)
        assert placement.feasible, placement.infeasible_reason
        meta = MetaCompiler(topology=topology, profiles=profiles)
        artifacts = meta.compile_placement(placement)
        assert artifacts.openflow_rules
        assert "actions=" in artifacts.openflow_text


class TestCodegenStats:
    def test_count_lines_skips_comments(self):
        text = "# comment\n\ncode line\n// c comment\nanother\n"
        assert count_lines(text) == 2

    def test_auto_fraction(self):
        stats = CodegenStats(manual_nf_lines=100, auto_steering_lines=40,
                             auto_nf_glue_lines=10)
        assert stats.auto_lines == 50
        assert stats.auto_fraction == pytest.approx(50 / 150)
        assert stats.steering_fraction_of_auto == pytest.approx(0.8)

    def test_empty_stats(self):
        stats = CodegenStats()
        assert stats.auto_fraction == 0.0
        assert stats.steering_fraction_of_auto == 0.0

    def test_report_format(self):
        stats = CodegenStats(manual_nf_lines=10, auto_steering_lines=5)
        assert "auto-generated" in stats.report()

    def test_canonical_chains_stats_match_paper_shape(self, profiles):
        """§5.3: 'more than a third of the total code is auto-generated,
        with most of the auto-generated code providing packet steering'."""
        from repro.experiments.chains import chains_with_delta
        chains = chains_with_delta([1, 2, 3, 4], delta=0.5)
        topology = topology_for("paper-testbed").build()
        placement = heuristic_place(chains, topology, profiles)
        meta = MetaCompiler(topology=topology, profiles=profiles)
        artifacts = meta.compile_placement(placement)
        assert artifacts.stats.auto_fraction > 1 / 3
        assert artifacts.stats.steering_fraction_of_auto > 0.5

    def test_module_sources_are_read_once_per_class(self, profiles,
                                                    monkeypatch):
        """The manual-NF line count is a constant of the source tree: the
        first compile reads each placed module class once, later compiles
        read nothing and report the same stats."""
        import inspect

        from repro.experiments.chains import chains_with_delta
        from repro.metacompiler import compiler

        reads = []
        real = inspect.getsource

        def counting(obj):
            reads.append(obj)
            return real(obj)

        monkeypatch.setattr(inspect, "getsource", counting)
        compiler._class_source_lines.cache_clear()
        chains = chains_with_delta([1, 2, 3, 4], delta=0.5)
        topology = topology_for("paper-testbed").build()
        placement = heuristic_place(chains, topology, profiles)
        meta = MetaCompiler(topology=topology, profiles=profiles)

        first = meta.compile_placement(placement).stats
        assert reads and len(reads) == len(set(reads))
        expected = first.manual_nf_lines
        assert expected > sum(count_lines(real(cls)) for cls in reads) > 0
        seen = len(reads)

        # a fresh compiler shares the per-process memo
        again = MetaCompiler(topology=topology, profiles=profiles)
        for stats in (meta.compile_placement(placement).stats,
                      again.compile_placement(placement).stats):
            assert len(reads) == seen
            assert stats == first


class TestMetaCompilerAPI:
    def test_compile_spec_front_door(self, profiles):
        meta = MetaCompiler(profiles=profiles)
        placement, artifacts = meta.compile_spec(
            "chain front: ACL -> Encrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(1), t_max=gbps(40))],
        )
        assert placement.feasible
        assert artifacts.p4 is not None
        assert artifacts.bess

    def test_infeasible_placement_rejected(self, profiles):
        from repro.exceptions import CompileError
        meta = MetaCompiler(profiles=profiles)
        with pytest.raises(CompileError):
            meta.compile_spec(
                "chain hog: Dedup -> Limiter -> IPv4Fwd",
                slos=[SLO(t_min=gbps(30))],
            )
