"""Fault timeline, rack fault hooks, and the SLO-guard chaos engine."""

import json

import numpy as np
import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.exceptions import DataplaneError, FaultInjectionError
from repro.hw.spec import TopologySpec, topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, scoped_registry
from repro.profiles.defaults import default_profiles
from repro.sim.columns import seq_dropped, vector_fault_mask
from repro.sim.faults import (
    ChaosEngine,
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    GuardConfig,
    run_chaos,
)
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


def _deploy(spec, slos, seed=23, **topo_kwargs):
    profiles = default_profiles()
    topology = TopologySpec.from_flags(**topo_kwargs).build()
    chains = chains_from_spec(spec, slos=slos)
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    registry = MetricsRegistry()
    rack = DeployedRack(topology, artifacts, profiles, seed=seed,
                        registry=registry)
    return rack, placement, registry


class TestFaultTimeline:
    def test_json_roundtrip(self):
        timeline = FaultTimeline(events=(
            FaultEvent(at_packet=64, action="fail", target="server0"),
            FaultEvent(at_packet=128, action="degrade_link",
                       target="server0", severity=0.5),
        ), seed=7)
        parsed = FaultTimeline.parse_json(timeline.to_json())
        assert parsed == timeline

    def test_parse_rejects_garbage(self):
        with pytest.raises(FaultInjectionError):
            FaultTimeline.parse_json("not json")
        with pytest.raises(FaultInjectionError):
            FaultTimeline.parse_json(json.dumps(
                {"events": [{"action": "fail"}]}  # missing at_packet
            ))

    def test_parse_rejects_unknown_fields(self):
        doc = json.loads(FaultTimeline(events=(
            FaultEvent(at_packet=1, action="fail", target="server0"),
        )).to_json())
        top = dict(doc, blast_radius=3)
        with pytest.raises(FaultInjectionError, match="unknown fields"):
            FaultTimeline.from_dict(top)
        event = dict(doc)
        event["events"] = [dict(doc["events"][0], jitter=0.1)]
        with pytest.raises(FaultInjectionError, match="unknown fields"):
            FaultTimeline.from_dict(event)

    def test_parse_rejects_non_object(self):
        with pytest.raises(FaultInjectionError):
            FaultTimeline.parse_json("[1, 2]")

    def test_validate_rejects_bad_events(self):
        topology = topology_for("paper-smartnic").build()

        def check(event):
            with pytest.raises(FaultInjectionError):
                FaultTimeline(events=(event,)).validate(topology)

        check(FaultEvent(at_packet=1, action="explode", target="server0"))
        check(FaultEvent(at_packet=-1, action="fail", target="server0"))
        check(FaultEvent(at_packet=1, action="fail", target="tofino0"))
        check(FaultEvent(at_packet=1, action="degrade_link",
                         target="agilio0", severity=0.5))
        check(FaultEvent(at_packet=1, action="degrade_link",
                         target="server0", severity=1.5))
        check(FaultEvent(at_packet=1, action="lose_cores",
                         target="server0", severity=0))

    @pytest.mark.parametrize("field, literal", [
        ("severity", "Infinity"),
        ("severity", "NaN"),
        ("severity", "1.5"),
        ("at_packet", "1.9"),
        ("at_packet", "true"),
        ("at_packet", "-0.5"),
    ])
    def test_wire_format_is_strict(self, field, literal):
        """An offset is a JSON integer >= 0, a severity a finite number
        and a core count whole: anything else is a typed error, never a
        bare OverflowError/ValueError or a silent truncation."""
        event = {"at_packet": "96", "action": '"lose_cores"',
                 "target": '"server0"', "severity": "2"}
        event[field] = literal
        text = '{"events": [{%s}]}' % ", ".join(
            f'"{key}": {value}' for key, value in event.items()
        )
        topology = topology_for("paper-testbed").build()
        with pytest.raises(FaultInjectionError):
            FaultTimeline.parse_json(text).validate(topology)

    def test_validate_rejects_unknown_device(self):
        from repro.exceptions import TopologyError

        timeline = FaultTimeline(events=(
            FaultEvent(at_packet=1, action="fail", target="nosuch"),
        ))
        with pytest.raises(TopologyError):
            timeline.validate(topology_for("paper-testbed").build())

    def test_random_is_seed_deterministic(self):
        topology = topology_for("paper-smartnic").build()
        a = FaultTimeline.random(seed=5, topology=topology, n_events=3)
        b = FaultTimeline.random(seed=5, topology=topology, n_events=3)
        c = FaultTimeline.random(seed=6, topology=topology, n_events=3)
        assert a == b
        assert a != c
        a.validate(topology)


class TestRackFaultHooks:
    SPEC = "chain a: Encrypt -> IPv4Fwd"
    SLOS = [SLO(t_min=gbps(1), t_max=gbps(20))]

    def test_failed_device_drops_everything(self):
        rack, placement, registry = _deploy(self.SPEC, self.SLOS)
        (cp,) = placement.chains
        rack.set_device_failed("server0")
        outputs = rack.run(
            cp, [_chain_packet(cp.chain, i) for i in range(16)]).outputs
        assert all(out is None for out in outputs)
        assert registry.counter_value(
            "rack.packets.dropped", chain="a", reason="device_failed") == 16
        rack.set_device_failed("server0", failed=False)
        outputs = rack.run(
            cp, [_chain_packet(cp.chain, i) for i in range(16)]).outputs
        assert all(out is not None for out in outputs)

    def test_cannot_fail_the_switch(self):
        rack, _, _ = _deploy(self.SPEC, self.SLOS)
        with pytest.raises(DataplaneError):
            rack.set_device_failed("tofino0")

    def test_drop_fraction_bounds(self):
        rack, _, _ = _deploy(self.SPEC, self.SLOS)
        with pytest.raises(DataplaneError):
            rack.set_drop_fraction("server0", 1.5)
        with pytest.raises(DataplaneError):
            rack.set_drop_fraction("server0", -0.1)

    def test_partial_loss_is_deterministic_and_proportional(self):
        rack, placement, _ = _deploy(self.SPEC, self.SLOS)
        (cp,) = placement.chains
        rack.set_drop_fraction("server0", 0.5)
        outcomes = [
            rack.run(
                cp, [_chain_packet(cp.chain, i) for i in range(256)]).outputs
            for _ in range(1)
        ][0]
        delivered = sum(1 for out in outcomes if out is not None)
        # the integer-hash coin lands close to the requested fraction
        assert 0.35 < delivered / 256 < 0.65

        # a second rack with the same seed makes identical decisions
        other, placement2, _ = _deploy(self.SPEC, self.SLOS)
        (cp2,) = placement2.chains
        other.set_drop_fraction("server0", 0.5)
        repeat = other.run(
            cp2, [_chain_packet(cp2.chain, i) for i in range(256)]).outputs
        assert [out is None for out in outcomes] == \
            [out is None for out in repeat]

        # a different seed makes a different sequence of decisions
        reseeded, placement3, _ = _deploy(self.SPEC, self.SLOS, seed=29)
        (cp3,) = placement3.chains
        reseeded.set_drop_fraction("server0", 0.5)
        shifted = reseeded.run(
            cp3, [_chain_packet(cp3.chain, i) for i in range(256)]).outputs
        assert [out is None for out in outcomes] != \
            [out is None for out in shifted]

    def test_batch_and_scalar_paths_agree_under_faults(self):
        rack_a, placement_a, _ = _deploy(self.SPEC, self.SLOS)
        rack_b, placement_b, _ = _deploy(self.SPEC, self.SLOS)
        (cp_a,), (cp_b,) = placement_a.chains, placement_b.chains
        rack_a.set_drop_fraction("server0", 0.3)
        rack_b.set_drop_fraction("server0", 0.3)
        batch = rack_a.run(
            cp_a, [_chain_packet(cp_a.chain, i) for i in range(64)]).outputs
        scalar = [rack_b.run(cp_b, [_chain_packet(cp_b.chain, i)]).outputs[0]
                  for i in range(64)]
        assert [out is None for out in batch] == \
            [out is None for out in scalar]

    @pytest.mark.parametrize("loss", [0.0, 1e-9, 0.25, 0.35, 0.5, 1.0])
    def test_scalar_and_vector_seq_hash_agree(self, loss):
        """The scalar drop decision and its column form are one hash: over
        the rack seed and an inter-rack link's salted seed, random and
        extreme sequence numbers, and losses from none to all."""
        rack, placement, _ = _deploy(self.SPEC, self.SLOS)
        (cp,) = placement.chains
        rack.set_interrack_hop(cp.name, "r0~r1", 50.0, drop_fraction=0.25)
        link_seed = rack._interrack[cp.name].link_seed
        assert link_seed != rack.seed
        seqs = np.concatenate([
            np.random.default_rng(7).integers(0, 2 ** 62, 4000),
            [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1],
        ]).astype(np.int64)
        for seed in (rack.seed, link_seed):
            want = [seq_dropped(seq, seed, loss) for seq in seqs.tolist()]
            assert vector_fault_mask(seqs, seed, loss).tolist() == want
            if loss in (0.0, 1.0):
                assert set(want) == {bool(loss)}
            elif loss >= 0.25:
                assert True in want and False in want

    def test_clear_faults(self):
        rack, placement, _ = _deploy(self.SPEC, self.SLOS)
        (cp,) = placement.chains
        rack.set_device_failed("server0")
        rack.set_drop_fraction("server0", 0.9)
        rack.clear_faults()
        outputs = rack.run(
            cp, [_chain_packet(cp.chain, i) for i in range(32)]).outputs
        assert all(out is not None for out in outputs)


def _smartnic_spec(**overrides):
    base = dict(
        spec_text="chain c: BPF -> FastEncrypt -> IPv4Fwd",
        slos=((gbps(1), gbps(39)),),
        timeline=FaultTimeline(events=(
            FaultEvent(at_packet=128, action="fail", target="agilio0"),
        ), seed=23),
        packets_per_chain=384,
        flows_per_chain=16,
        batch_size=32,
        guard=GuardConfig(window_packets=64),
        topology=topology_for("paper-smartnic"),
    )
    base.update(overrides)
    return ChaosSpec(**base)


class TestChaosEngine:
    def test_guard_ladder_detect_degrade_replan(self):
        registry = MetricsRegistry()
        report = run_chaos(_smartnic_spec(), registry=registry)

        labels = [ph.label for ph in report.phases]
        assert labels == [
            "healthy", "fault:fail(agilio0)", "degraded", "replanned",
        ]
        assert report.violations >= 2
        assert report.degradations == 1
        assert report.replans == 1
        # the replanned phase meets every SLO again
        final = report.phases[-1]
        assert final.mode == "normal"
        assert final.compliant
        for row in final.chains:
            assert row.delivered_mbps >= final.t_mins[row.chain_name]
        # guard observability exported
        assert registry.counter_value("slo.violations", chain="c") >= 2
        assert registry.counter_value("replan.count") == 1
        assert registry.counter_value("guard.degradations") == 1
        assert registry.gauge_value("guard.degraded_mode") == 0

    def test_a_replan_is_a_delta_redeploy(self):
        """The core's compiler and deployed rack live as long as the
        run: a replan regenerates only the units the new placement
        changed and redeploys the running rack, whose injection
        sequence counter survives — and what it deploys is digest-equal
        to a from-scratch compile."""
        spec = _smartnic_spec(
            spec_text=("chain c: BPF -> FastEncrypt -> IPv4Fwd\n"
                       "chain d: Encrypt -> IPv4Fwd"),
            slos=((gbps(1), gbps(39)), (gbps(1), gbps(10))),
        )
        registry = MetricsRegistry()
        engine = ChaosEngine(spec, registry=registry)
        report = engine.run()
        reused = registry.counter_value(
            "metacompiler.codegen.units", platform="p4_chain",
            result="reused",
        )
        assert report.replans == 1
        assert reused >= 1  # chain d never left the switch and server
        rack = engine.core.cores["r0"]
        assert rack.rack._next_seq == report.total_injected
        switch = rack.topology.switch.name
        scratch = MetaCompiler(
            topology=rack.topology, profiles=rack.profiles
        ).compile_placement(rack.placement)
        assert (rack.rack.artifacts.device_fingerprints(switch)
                == scratch.device_fingerprints(switch))

    def test_every_layer_reports_to_the_given_registry(self):
        """The initial solve and the replan record where the engine does,
        not in whatever registry is the process default."""
        mine = MetricsRegistry()
        with scoped_registry() as ambient:
            report = run_chaos(_smartnic_spec(), registry=mine)
        assert report.replans == 1
        # the initial solve and the replan
        assert mine.counter_value("lp.solves", objective="marginal") >= 2
        assert mine.counter_value(
            "placer.placements", strategy="lemur", feasible="true") == 2
        assert not list(ambient.counters())
        assert not list(ambient.histograms())

    def test_no_degrade_first_replans_directly(self):
        spec = _smartnic_spec(
            guard=GuardConfig(window_packets=64, degrade_first=False))
        report = run_chaos(spec)
        assert report.degradations == 0
        assert report.replans == 1
        assert [ph.label for ph in report.phases] == [
            "healthy", "fault:fail(agilio0)", "replanned",
        ]

    def test_lose_cores_replans_around_dead_cores(self):
        spec = ChaosSpec(
            spec_text="chain a: BPF -> FastEncrypt -> IPv4Fwd",
            slos=((gbps(1), gbps(10)),),
            timeline=FaultTimeline(events=(
                FaultEvent(at_packet=96, action="lose_cores",
                           target="server0", severity=6),
            ), seed=11),
            packets_per_chain=512, flows_per_chain=8, batch_size=32,
            guard=GuardConfig(window_packets=64), seed=11,
        )
        report = run_chaos(spec)
        assert report.replans == 1
        assert report.phases[-1].label == "replanned"
        assert report.phases[-1].compliant

    def test_recovery_event_restores_service(self):
        spec = _smartnic_spec(
            timeline=FaultTimeline(events=(
                FaultEvent(at_packet=128, action="fail", target="agilio0"),
                FaultEvent(at_packet=192, action="recover",
                           target="agilio0"),
            ), seed=23),
            # a huge window keeps the guard quiet: only events shape phases
            guard=GuardConfig(window_packets=10_000),
        )
        report = run_chaos(spec)
        assert [ph.label for ph in report.phases] == [
            "healthy", "fault:fail(agilio0)", "fault:recover(agilio0)",
        ]
        assert report.replans == 0
        assert report.phases[-1].compliant

    def test_infeasible_replan_exhausts_guard(self):
        # both the SmartNIC and the only server die: nothing survives
        spec = _smartnic_spec(
            timeline=FaultTimeline(events=(
                FaultEvent(at_packet=128, action="fail", target="agilio0"),
                FaultEvent(at_packet=128, action="fail", target="server0"),
            ), seed=23),
            guard=GuardConfig(window_packets=64, degrade_first=False),
        )
        report = run_chaos(spec)
        assert report.infeasible_replans >= 1
        assert any(ph.label == "replan-infeasible" for ph in report.phases)
        assert not report.phases[-1].compliant

    def test_report_is_deterministic(self):
        a = run_chaos(_smartnic_spec())
        b = run_chaos(_smartnic_spec())
        # the second engine replans the same failure again, from nothing
        assert a.replans == b.replans >= 1
        assert b.phases[-1].compliant
        assert a.render() == b.render()
        assert a.to_json() == b.to_json()

    def test_spec_seed_reaches_rack_and_report(self):
        spec = ChaosSpec(
            spec_text="chain a: BPF -> FastEncrypt -> IPv4Fwd",
            slos=((gbps(1), gbps(10)),),
            timeline=FaultTimeline(events=(
                FaultEvent(at_packet=96, action="degrade_link",
                           target="server0", severity=0.8),
            ),),
            packets_per_chain=256, flows_per_chain=8, batch_size=32,
            guard=GuardConfig(window_packets=10_000),
            seed=29,
        )
        base = run_chaos(spec)
        same = run_chaos(spec)
        assert base.render() == same.render()
        assert base.seed == 29
        assert "seed=29" in base.render()
        # partial link loss produced shortfall drops in the fault phase
        fault_phase = base.phases[-1]
        (row,) = fault_phase.chains
        assert row.dropped > 0

    @pytest.mark.parametrize("window", [0, -1])
    def test_empty_guard_window_rejected(self, window):
        """The guard reads the last ``window_packets`` stamps: a window
        of none has nothing to judge, so the run refuses it up front."""
        spec = _smartnic_spec(guard=GuardConfig(window_packets=window))
        with pytest.raises(FaultInjectionError, match="window_packets"):
            run_chaos(spec)

    def test_slo_count_mismatch_rejected(self):
        with pytest.raises(FaultInjectionError):
            _smartnic_spec(slos=()).build_chains()

    def test_engine_validates_timeline_against_topology(self):
        spec = ChaosSpec(
            spec_text="chain a: ACL -> IPv4Fwd",
            slos=((gbps(1), gbps(10)),),
            timeline=FaultTimeline(events=(
                FaultEvent(at_packet=1, action="fail", target="agilio0"),
            )),
        )
        with pytest.raises(Exception):
            # no SmartNIC in the default testbed
            ChaosEngine(spec)



class TestChaosCLI:
    def test_chaos_cli_smoke(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "one.lemur"
        spec.write_text("chain c: BPF -> FastEncrypt -> IPv4Fwd\n")
        out_file = tmp_path / "report.txt"
        code = main([
            "chaos", str(spec), "--tmin", "1", "--tmax", "39",
            "--smartnic", "--fail", "agilio0@128",
            "--packets", "384", "--flows", "16", "--batch", "32",
            "--window", "64", "--out", str(out_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "replanned" in out
        assert "== metrics ==" in out
        assert "slo.violations" in out
        # the artifact is the deterministic table, no wall-clock noise
        text = out_file.read_text()
        assert "chaos report (seed=23)" in text
        assert "replanned" in text

    def test_chaos_cli_timeline_file(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "one.lemur"
        spec.write_text("chain c: BPF -> FastEncrypt -> IPv4Fwd\n")
        timeline = tmp_path / "timeline.json"
        timeline.write_text(FaultTimeline(events=(
            FaultEvent(at_packet=128, action="fail", target="agilio0"),
        )).to_json())
        code = main([
            "chaos", str(spec), "--tmin", "1", "--tmax", "39",
            "--smartnic", "--timeline", str(timeline),
            "--packets", "384", "--flows", "16", "--batch", "32",
            "--window", "64", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["replans"] == 1
        assert payload["phases"][-1]["compliant"]

    def test_chaos_cli_rejects_malformed_event(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "one.lemur"
        spec.write_text("chain a: ACL -> IPv4Fwd\n")
        code = main(["chaos", str(spec), "--fail", "server0@notanumber"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_chaos_cli_rejects_empty_window(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "one.lemur"
        spec.write_text("chain a: ACL -> IPv4Fwd\n")
        code = main(["chaos", str(spec), "--window", "0"])
        assert code == 1
        assert "window_packets must be >= 1" in capsys.readouterr().err
