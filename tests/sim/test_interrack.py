"""Fabric runtime: stitched traffic replay, chaos, and chain lifecycle."""

import pytest

from repro.exceptions import (
    FaultInjectionError,
    LifecycleError,
    TopologyError,
)
from repro.hw.spec import TopologySpec, topology_for
from repro.obs import MetricsRegistry, scoped_registry
from repro.sim.admission import AdmissionCore, ChainEvent
from repro.sim.faults import ChaosSpec, FaultEvent, FaultTimeline
from repro.sim.interrack import (
    FabricAdmissionCore,
    make_admission_core,
    run_fabric_chaos,
    run_fabric_traffic,
)
from repro.sim.lifecycle import LifecycleSpec
from repro.sim.traffic import TrafficSpec

SPEC6 = "\n".join(
    f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(6)
)
SLOS6 = tuple((4000.0, 9000.0, 400.0) for _ in range(6))


def _run_spec(n, topology=topology_for("two-rack")):
    """``n`` copies of the 4 Gbps / 400 µs chain on ``topology``."""
    return LifecycleSpec(
        spec_text="\n".join(
            f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd"
            for i in range(n)
        ),
        slos=tuple((4000.0, 9000.0, 400.0) for _ in range(n)),
        topology=topology,
        flows_per_chain=8, batch_size=16, seed=7,
    )


def _traffic_spec():
    return TrafficSpec(
        spec_text=SPEC6, slos=SLOS6,
        topology=topology_for("two-rack"),
        packets_per_chain=96, flows_per_chain=8, batch_size=16, seed=7,
    )


class TestFabricTraffic:
    def test_remote_chain_carries_link_latency(self):
        fabric = topology_for("two-rack").build()
        report = run_fabric_traffic(
            _traffic_spec(), fabric, registry=MetricsRegistry()
        )
        assert report.ok
        remote = set(report.solve.placement.remote)
        assert remote  # the rack overflows, someone pays the RTT
        rows = {row.chain_name: row for row in report.report.chains}
        assert set(rows) == {f"c{i}" for i in range(6)}
        for name, row in rows.items():
            # rows restore the END-TO-END budget, not the shrunk one
            assert row.latency_slo_us == 400.0
            if name in remote:
                assert report.assignment[name] == "r1"
                # the stamped RTT (2 x 50 µs) dominates the local path
                assert row.latency_p99_us >= 100.0
            else:
                assert report.assignment[name] == "r0"
                assert row.latency_p99_us < 100.0

    def test_replay_is_deterministic(self):
        first = run_fabric_traffic(
            _traffic_spec(), topology_for("two-rack").build(),
            registry=MetricsRegistry(),
        )
        second = run_fabric_traffic(
            _traffic_spec(), topology_for("two-rack").build(),
            registry=MetricsRegistry(),
        )
        a, b = first.as_dict(), second.as_dict()
        a.pop("run_wall_seconds", None), b.pop("run_wall_seconds", None)
        assert a == b

    def test_report_surfaces_route_and_mode(self):
        report = run_fabric_traffic(
            _traffic_spec(), topology_for("two-rack").build(),
            registry=MetricsRegistry(),
        )
        payload = report.as_dict()
        assert payload["mode"] == "hierarchical"
        assert payload["racks"] == report.assignment
        text = report.render()
        assert "r0~r1" in text and "µs RTT" in text


class TestFabricChaos:
    def _chaos_spec(self, events):
        return ChaosSpec(
            spec_text=SPEC6, slos=SLOS6,
            topology=topology_for("two-rack"),
            timeline=FaultTimeline(events=tuple(events), seed=7),
            packets_per_chain=128, flows_per_chain=8, batch_size=16, seed=7,
        )

    def test_events_split_by_home_rack(self):
        spec = self._chaos_spec([
            FaultEvent(at_packet=32, action="degrade_link",
                       target="r0.server0", severity=0.3),
            FaultEvent(at_packet=48, action="degrade_link",
                       target="r1.server0", severity=0.3),
            FaultEvent(at_packet=96, action="restore_link",
                       target="r0.server0"),
        ])
        report = run_fabric_chaos(
            spec, topology_for("two-rack").build(),
            registry=MetricsRegistry(),
        )
        assert set(report.racks) == {"r0", "r1"}
        assert not report.dropped_events
        assert report.total_injected > 0
        assert report.assignment["c5"] == "r1"
        text = report.render()
        assert "-- rack r0 --" in text and "-- rack r1 --" in text
        assert "fabric totals" in text

    def test_unknown_target_rejected(self):
        spec = self._chaos_spec([
            FaultEvent(at_packet=32, action="degrade_link",
                       target="r9.server0", severity=0.3),
        ])
        with pytest.raises(FaultInjectionError):
            run_fabric_chaos(spec, topology_for("two-rack").build(),
                             registry=MetricsRegistry())

    def test_chaos_is_deterministic(self):
        events = [
            FaultEvent(at_packet=32, action="degrade_link",
                       target="r0.server0", severity=0.4),
            FaultEvent(at_packet=96, action="restore_link",
                       target="r0.server0"),
        ]
        runs = [
            run_fabric_chaos(
                self._chaos_spec(events),
                topology_for("two-rack").build(),
                registry=MetricsRegistry(),
            ).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestAdmissionFactory:
    def test_fabric_topology_gets_fabric_core(self):
        core = make_admission_core(_run_spec(2))
        assert isinstance(core, FabricAdmissionCore)

    def test_plain_topology_gets_single_rack_core(self):
        core = make_admission_core(_run_spec(1, topology_for("paper-testbed")))
        assert isinstance(core, AdmissionCore)

    def test_one_rack_fabric_degenerates(self):
        # a one-rack star has no links: it is its rack, not a fabric
        core = make_admission_core(_run_spec(1, TopologySpec.star(1)))
        assert isinstance(core, AdmissionCore)
        assert not isinstance(core, FabricAdmissionCore)

    def test_fabric_core_requires_fabric(self):
        with pytest.raises(LifecycleError, match="MultiRackTopology"):
            FabricAdmissionCore(_run_spec(1, topology_for("paper-testbed")))


class TestFabricLifecycle:
    def _core(self, n=6):
        core = FabricAdmissionCore(_run_spec(n), registry=MetricsRegistry())
        core.bootstrap()
        return core

    def _arrive(self, name, t_min=4000.0, at=1):
        return ChainEvent(
            at=at, action="arrive", chain=name,
            spec=f"chain {name}: ACL(rules=64) -> Encrypt -> IPv4Fwd",
            t_min_mbps=t_min, t_max_mbps=9000.0, d_max_us=400.0,
        )

    def _saturate_ingress(self, core):
        """Fill r0 to its true capacity (the partition proxy spills at 6
        chains, the real rack solve at 8): after c6/c7 land on r0 it
        holds 7 chains and the next 4 Gbps arrival must go elsewhere."""
        for name in ("c6", "c7"):
            decision = core.process(self._arrive(name))
            assert decision.accepted and core.assignment[name] == "r0"

    def test_every_layer_reports_to_the_given_registry(self):
        """Partitioner, per-rack solves and LP record where the fabric
        core does, not in whatever registry is the process default."""
        with scoped_registry() as ambient:
            core = self._core()
            assert core.process(self._arrive("c6")).accepted
        assert core.obs.counter_value(
            "lp.solves", objective="marginal") >= 1
        assert core.obs.counter_value(
            "placer.placements", strategy="lemur", feasible="true") >= 1
        assert any(h.name == "partition.seconds"
                   for h in core.obs.histograms())
        assert not list(ambient.counters())
        assert not list(ambient.histograms())

    def test_bootstrap_spills_overflow(self):
        core = self._core()
        assert set(core.assignment.values()) == {"r0", "r1"}
        assert set(core.cores) == {"r0", "r1"}
        placement = core.placement
        assert placement.aggregate_rate > 0
        assert "r1" in placement.describe()

    def test_arrival_spills_when_ingress_is_full(self):
        core = self._core()
        self._saturate_ingress(core)
        decision = core.process(self._arrive("c8", at=3))
        assert decision.accepted, decision.reason
        assert core.assignment["c8"] == "r1"
        assert core.obs.counter_value("lifecycle.spills") >= 1

    def test_latency_budget_bounds_arrivals(self):
        """An arrival whose d_max is inside the fabric RTT can only land
        on the ingress; once that is full it is rejected with the RTT in
        the reason."""
        core = self._core()
        self._saturate_ingress(core)
        tight = ChainEvent(
            at=3, action="arrive", chain="tight",
            spec="chain tight: ACL(rules=64) -> Encrypt -> IPv4Fwd",
            t_min_mbps=4000.0, t_max_mbps=9000.0, d_max_us=90.0,
        )
        decision = core.process(tight)
        assert not decision.accepted
        assert "inter-rack RTT" in decision.reason

    def test_scale_migrates_off_saturated_rack(self):
        """The proven recipe: saturate the ingress, then scale one of its
        chains past what it can absorb — the chain moves to r1."""
        core = self._core()
        self._saturate_ingress(core)
        assert core.assignment["c1"] == "r0"
        decision = core.process(ChainEvent(
            at=3, action="scale", chain="c1", t_min_mbps=12000.0,
        ))
        assert decision.accepted, decision.reason
        assert decision.mode == "migrate:r0->r1"
        assert core.assignment["c1"] == "r1"
        assert core.obs.counter_value("lifecycle.migrations") == 1

    def _spill_into_empty_rack(self, core):
        """Arrive 4 Gbps chains until the ingress is full and one lands
        on the satellite rack, which hosted nothing before it."""
        assert set(core.cores) == {"r0"}
        for index in range(len(core.active), 12):
            name = f"c{index}"
            decision = core.process(self._arrive(name, at=index))
            assert decision.accepted, decision.reason
            if core.assignment[name] == "r1":
                return name, decision
        pytest.fail("the ingress never filled up")

    @staticmethod
    def _assert_rack_devices(devices, rack):
        assert devices and devices == tuple(sorted(devices))
        assert all(
            isinstance(device, str) and device.startswith(f"{rack}.")
            for device in devices
        )

    def test_first_chain_into_empty_rack(self):
        core = self._core(2)  # both chains fit the ingress; r1 is empty
        _name, decision = self._spill_into_empty_rack(core)
        assert decision.mode == "full"
        self._assert_rack_devices(decision.rebuilt, "r1")
        assert set(core.cores) == {"r0", "r1"}

    def test_last_depart_tears_down_rack(self):
        core = self._core(2)
        name, _decision = self._spill_into_empty_rack(core)
        departed = core.process(ChainEvent(
            at=20, action="depart", chain=name,
        ))
        assert departed.accepted
        assert departed.mode == "teardown"
        self._assert_rack_devices(departed.removed, "r1")
        assert "r1" not in core.cores
        assert name not in core.assignment
        assert core.obs.counter_value("lifecycle.rack_teardowns") == 1

    def test_scale_migrates_into_empty_rack(self):
        """A scale-up the ingress cannot absorb next to its other chain
        moves the chain to r1, cold-bootstrapping that rack's core."""
        core = self._core(2)
        assert set(core.cores) == {"r0"}
        decision = core.process(ChainEvent(
            at=1, action="scale", chain="c1", t_min_mbps=30000.0,
        ))
        assert decision.accepted, decision.reason
        assert decision.mode == "migrate:r0->r1"
        self._assert_rack_devices(decision.rebuilt, "r1")
        assert core.assignment["c1"] == "r1"
        assert set(core.cores) == {"r0", "r1"}

    def test_phase_rows_restore_end_to_end_budget(self):
        core = self._core()
        phase = core.run_phase("steady", 64, index=0)
        rows = {row.chain_name: row for row in phase.chains}
        assert set(rows) == {f"c{i}" for i in range(6)}
        for name, row in rows.items():
            assert row.latency_slo_us == 400.0
            if core.assignment[name] == "r1":
                assert row.latency_p99_us >= 100.0

    def test_fault_routed_to_hosting_rack(self):
        core = self._core()
        core.apply_fault("degrade_link", "r1.server0", 0.4)
        assert core.fault_state  # surfaced on the fabric view
        with pytest.raises(TopologyError):
            core.apply_fault("degrade_link", "r9.server0", 0.4)

    def test_fault_on_empty_rack_rejected(self):
        core = self._core(2)  # both chains fit the ingress; r1 is empty
        assert set(core.cores) == {"r0"}
        with pytest.raises(FaultInjectionError, match="hosts no chains"):
            core.apply_fault("degrade_link", "r1.server0", 0.4)

    def test_state_digest_replays_identically(self):
        def scripted():
            core = self._core()
            core.process(self._arrive("c6"))
            core.process(ChainEvent(at=2, action="scale", chain="c1",
                                    t_min_mbps=6000.0))
            core.process(ChainEvent(at=3, action="depart", chain="c6"))
            return core

        assert scripted().state_digest() == scripted().state_digest()

    def test_duplicate_arrival_rejected(self):
        core = self._core()
        decision = core.process(self._arrive("c0"))
        assert not decision.accepted
        assert "already active" in decision.reason
