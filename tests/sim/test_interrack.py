"""Fabric runtime: stitched traffic replay, chaos, and chain lifecycle."""

import inspect
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import MultiRackPlacer
from repro.core.partition import link_loads, partition_chains
from repro.core.placer import PlacementRequest, PlacerConfig
from repro.exceptions import PartitionError, PlacementError, TopologyError
from repro.hw.multirack import MultiRackTopology
from repro.hw.spec import (
    InterRackLinkSpec,
    RackSpec,
    TopologySpec,
    topology_for,
)
from repro.obs import MetricsRegistry, scoped_registry
from repro.profiles.defaults import default_profiles
from repro.sim.admission import AdmissionCore, ChainEvent
from repro.sim.faults import ChaosSpec, FaultEvent, FaultTimeline, run_chaos
from repro.sim.lifecycle import LifecycleSpec, LifecycleTimeline, run_lifecycle
from repro.sim.traffic import TrafficSpec, run_traffic

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
        report = run_traffic(_traffic_spec(), registry=MetricsRegistry())
        assert report.ok
        remote = set(report.remote)
        assert remote  # the rack overflows, someone pays the RTT
        rows = {row.chain_name: row for row in report.chains}
        assert set(rows) == {f"c{i}" for i in range(6)}
        for name, row in rows.items():
            # rows restore the END-TO-END budget, not the shrunk one
            assert row.latency_slo_us == 400.0
            if name in remote:
                assert report.racks[name] == "r1"
                # the stamped RTT (2 x 50 µs) dominates the local path
                assert row.latency_p99_us >= 100.0
            else:
                assert report.racks[name] == "r0"
                assert row.latency_p99_us < 100.0

    def test_replay_is_deterministic(self):
        first = run_traffic(_traffic_spec(), registry=MetricsRegistry())
        second = run_traffic(_traffic_spec(), registry=MetricsRegistry())
        a, b = first.as_dict(), second.as_dict()
        a.pop("run_wall_seconds", None), b.pop("run_wall_seconds", None)
        assert a == b

    def test_report_surfaces_route(self):
        report = run_traffic(_traffic_spec(), registry=MetricsRegistry())
        payload = report.as_dict()
        assert payload["racks"] == report.racks
        text = report.render()
        assert "r0~r1" in text and "µs RTT" in text


class TestOneFabricSolve:
    """Every front door bootstraps a fabric from the one hierarchical
    solve, link pass included. On a 6 Gbps two-rack star the spilled
    chain is held to what its link carries, so the dataplane drops
    none of its packets at the link."""

    NARROW = TopologySpec.star(2, capacity_mbps=6000.0)

    def test_bootstrap_takes_the_hierarchical_solve(self):
        spec = _run_spec(6, self.NARROW)
        solved = MultiRackPlacer(
            spec.build_topology(), default_profiles(),
            PlacerConfig(strategy=spec.strategy),
        ).solve(PlacementRequest.multi_rack(
            spec.build_chains(), objective=spec.objective,
        )).placement
        core = AdmissionCore(spec, registry=MetricsRegistry())
        core.bootstrap()
        assert core.assignment == solved.partition.assignment
        assert core.rates == solved.rates
        assert core.rates["c5"] == pytest.approx(6000.0)
        for rack, report in solved.reports.items():
            assert (core.cores[rack].placement.describe()
                    == report.placement.describe())

    def test_initial_phase_delivers_every_spilled_packet(self):
        spec = replace(
            _run_spec(6, self.NARROW),
            timeline=LifecycleTimeline(events=()),
            packets_per_phase=96,
        )
        report = run_lifecycle(spec, registry=MetricsRegistry())
        rows = {row.chain_name: row for row in report.phases[0].chains}
        assert rows["c5"].assigned_mbps == pytest.approx(6000.0)
        assert (rows["c5"].injected, rows["c5"].delivered) == (96, 96)

    @settings(max_examples=40, deadline=None)
    @given(
        racks=st.sampled_from([2, 3]),
        capacity=st.integers(min_value=1, max_value=40).map(
            lambda gbps: gbps * 1000.0),
        chains=st.integers(min_value=1, max_value=10),
        events=st.lists(st.tuples(
            st.sampled_from(["arrive", "scale", "depart"]),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=12).map(
                lambda gbps: gbps * 1000.0),
        ), max_size=6),
    )
    def test_no_link_carries_more_than_its_capacity(
            self, racks, capacity, chains, events):
        """Up to five chains a rack, so the partitioner's core proxy
        never binds alone: a bootstrap either fits every link at the
        core's rates or is refused for a link it names. So does every
        accepted arrive, scale and depart after it, and the phase that
        follows drops no packet at a link."""
        registry = MetricsRegistry()
        spec = _run_spec(
            min(chains, 5 * racks),
            TopologySpec.star(racks, capacity_mbps=capacity),
        )
        core = AdmissionCore(spec, registry=registry)
        try:
            core.bootstrap()
        except PlacementError as exc:
            event("bootstrap refused")
            assert "link r0~r" in str(exc)
            assert "capacity exhausted" in str(exc)
            return

        def assert_links_hold():
            loads = link_loads(core.placement.remote, core.rates)
            for link in core.fabric.links:
                load = loads.get(link.name, 0.0)
                assert load <= link.capacity_mbps * (1.0 + 1e-9)
                if load >= link.capacity_mbps * (1.0 - 1e-9):
                    event("a link is full")

        def link_drops():
            return sum(
                registry.counter_value("interrack.drops", link=link.name)
                for link in core.fabric.links
            )

        assert_links_hold()
        for tick, (action, which, t_min) in enumerate(events, start=1):
            chain = f"c{which}"
            decision = core.process(ChainEvent(
                at=tick, action=action, chain=chain,
                spec=f"chain {chain}: ACL(rules=64) -> Encrypt -> IPv4Fwd",
                t_min_mbps=t_min, t_max_mbps=t_min + 5000.0,
                d_max_us=400.0,
            ) if action != "depart" else ChainEvent(
                at=tick, action=action, chain=chain,
            ))
            event(f"{action} {'accepted' if decision.accepted else 'rejected'}")
            if not decision.accepted:
                continue
            assert_links_hold()
            before = link_drops()
            core.run_phase(f"t{tick}", 16, index=tick)
            assert link_drops() == before


class TestFabricChaos:
    """A fabric runs one fault timeline through the admission core:
    offsets count the packets injected fabric-wide, one phase sequence
    covers every rack, rows carry end-to-end ``d_max``."""

    def _chaos_spec(self, events):
        return ChaosSpec(
            spec_text=SPEC6, slos=SLOS6,
            topology=topology_for("two-rack"),
            timeline=FaultTimeline(events=tuple(events), seed=7),
            packets_per_chain=128, flows_per_chain=8, batch_size=16, seed=7,
        )

    def test_one_timeline_over_every_rack(self):
        # a round is one 16-packet batch of each of the six chains
        spec = self._chaos_spec([
            FaultEvent(at_packet=96, action="degrade_link",
                       target="r0.server0", severity=0.3),
            FaultEvent(at_packet=192, action="degrade_link",
                       target="r1.server0", severity=0.3),
            FaultEvent(at_packet=384, action="restore_link",
                       target="r0.server0"),
        ])
        registry = MetricsRegistry()
        report = run_chaos(spec, registry=registry)
        assert [ph.label for ph in report.phases] == [
            "healthy",
            "fault:degrade_link(r0.server0)",
            "fault:degrade_link(r1.server0)",
            "fault:restore_link(r0.server0)",
        ]
        assert [ph.start_packet for ph in report.phases] == [0, 96, 192, 384]
        assert report.total_injected == 6 * 128
        for phase in report.phases:
            rows = {row.chain_name: row for row in phase.chains}
            assert set(rows) == {f"c{i}" for i in range(6)}
            # rows restore the END-TO-END budget, not the shrunk one
            assert all(row.latency_slo_us == 400.0 for row in rows.values())
            # c5 spills to r1 and pays the 2 x 50 µs RTT
            assert rows["c5"].latency_p99_us >= 100.0
        assert registry.counter_value(
            "faults.injected", action="degrade_link", target="r1.server0"
        ) == 1

    def test_unknown_target_rejected(self):
        spec = self._chaos_spec([
            FaultEvent(at_packet=32, action="degrade_link",
                       target="r9.server0", severity=0.3),
        ])
        with pytest.raises(TopologyError, match="no rack hosts"):
            run_chaos(spec, registry=MetricsRegistry())

    def test_chaos_is_deterministic(self):
        events = [
            FaultEvent(at_packet=32, action="degrade_link",
                       target="r0.server0", severity=0.4),
            FaultEvent(at_packet=96, action="restore_link",
                       target="r0.server0"),
        ]
        runs = [
            run_chaos(self._chaos_spec(events),
                      registry=MetricsRegistry()).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestOneAdmissionCore:
    """Every topology gets the same core; a single rack is a one-rack
    fabric with no links whose ingress is that rack."""

    @staticmethod
    def _bootstrapped(spec):
        core = AdmissionCore(spec, registry=MetricsRegistry())
        core.bootstrap()
        return core

    def test_two_rack_is_a_fabric_of_rack_cores(self):
        core = self._bootstrapped(_run_spec(2))
        assert core.fabric.rack_names == ["r0", "r1"]
        assert core.fabric.ingress == "r0" and core.fabric.links
        # both chains fit the ingress: only occupied racks get a core
        assert set(core.cores) == {"r0"}
        assert core.cores["r0"].topology.switch.name == "r0.tofino0"

    @pytest.mark.parametrize("topology", [
        topology_for("paper-testbed"), TopologySpec.star(1),
    ], ids=["paper-testbed", "star-1"])
    def test_single_rack_is_a_one_rack_fabric(self, topology):
        core = self._bootstrapped(_run_spec(2, topology))
        assert core.fabric.rack_names == ["r0"]
        assert core.fabric.ingress == "r0" and not core.fabric.links
        assert set(core.cores) == {"r0"}
        assert core.assignment == {"c0": "r0", "c1": "r0"}
        # the rack is built as a rack: device names stay unprefixed
        assert core.cores["r0"].topology.switch.name == "tofino0"
        core.apply_fault("degrade_link", "server0", 0.5)
        assert core.faults.view() == {"link_factor:server0": 0.5}
        with pytest.raises(TopologyError, match="no device named"):
            core.apply_fault("fail", "r0.server0")

    @pytest.mark.parametrize("n", [6, 7])
    def test_single_rack_bootstrap_does_not_partition(self, n):
        """The partitioner's all-software core-demand precheck refuses
        sets ``Placer.solve`` places: one rack takes every chain."""
        spec = _run_spec(n, topology_for("paper-testbed"))
        with pytest.raises(PartitionError, match="cores exhausted"):
            partition_chains(
                spec.build_chains(),
                MultiRackTopology(racks={"r0": spec.build_topology()}),
                default_profiles(),
            )
        core = self._bootstrapped(spec)
        assert [c.name for c in core.active] == [f"c{i}" for i in range(n)]

    def test_single_rack_rejection_is_the_racks_own_reason(self):
        core = self._bootstrapped(_run_spec(2, topology_for("paper-testbed")))
        decision = core.process(ChainEvent(
            at=1, action="arrive", chain="huge",
            spec="chain huge: ACL(rules=64) -> Encrypt -> IPv4Fwd",
            t_min_mbps=400000.0, t_max_mbps=400000.0,
        ))
        assert not decision.accepted
        assert decision.mode == "incremental" and decision.pinned == 2
        assert decision.seconds > 0
        assert not decision.reason.startswith("no rack admitted")
        # the rejected solve held both admitted chains at their floors
        assert core.obs.counter_value("lifecycle.evictions_averted") == 1

    def test_core_takes_a_spec_not_chains_or_a_topology(self):
        params = inspect.signature(AdmissionCore.__init__).parameters
        assert list(params) == ["self", "spec", "registry", "full_resolve"]


class TestFabricLifecycle:
    def _core(self, n=6):
        core = AdmissionCore(_run_spec(n), registry=MetricsRegistry())
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

    def test_an_arrival_is_parsed_once_whatever_racks_it_asks(
            self, monkeypatch):
        """A three-rack replay whose arrivals spill: each arrival's spec
        is parsed once, and every rack it asks gets that chain."""
        from repro.sim import admission

        core = AdmissionCore(_run_spec(9, topology_for("three-rack")),
                             registry=MetricsRegistry())
        core.bootstrap()
        parses = []
        real = admission.chains_from_spec
        monkeypatch.setattr(
            admission, "chains_from_spec",
            lambda text, *args, **kwargs:
                parses.append(text) or real(text, *args, **kwargs),
        )
        arrivals = [self._arrive(f"n{i}", at=i + 1) for i in range(8)]
        decisions = [core.process(event) for event in arrivals]
        asked = core.obs.counter_value("lifecycle.events", action="arrive")
        assert asked > len(arrivals)  # some arrival asked several racks
        assert sum(d.accepted for d in decisions) >= 1
        assert len(parses) == len(arrivals)

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
        assert core.faults.view() == {"link_factor:r1.server0": 0.6}
        with pytest.raises(TopologyError):
            core.apply_fault("degrade_link", "r9.server0", 0.4)

    def test_fault_on_empty_rack_is_held_until_it_opens(self):
        core = self._core(2)  # both chains fit the ingress; r1 is empty
        assert set(core.cores) == {"r0"}
        core.apply_fault("fail", "r1.server0")
        assert core.faults.view() == {"fail:r1.server0": 1.0}
        name, _decision = self._spill_into_empty_rack(core)
        phase = core.run_phase("after", 32, index=0)
        rows = {row.chain_name: row for row in phase.chains}
        # admission ignores the fault; the opened rack inherits it
        assert rows[name].delivered == 0
        assert all(row.delivered == 32 for chain, row in rows.items()
                   if core.assignment[chain] == "r0")

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


def test_no_accepted_decision_over_commits_a_link():
    """Six 4 Gbps chains on two racks joined by a 6 Gbps link: c5 spills
    to r1 at the link's 6 000 Mbps. Scaling it to t_min 5 000 / t_max
    12 000 is accepted at the 6 000 Mbps its rack's link row allows, and
    the next phase delivers every packet."""
    core = AdmissionCore(
        _run_spec(6, TopologySpec.star(2, capacity_mbps=6000)),
        registry=MetricsRegistry(),
    )
    capacity = {link.name: link.capacity_mbps for link in core.fabric.links}

    def assert_links_hold():
        for link, load in link_loads(core.placement.remote,
                                     core.rates).items():
            assert load <= capacity[link], (link, load, capacity[link])

    core.bootstrap()
    assert core.assignment["c5"] == "r1"
    assert_links_hold()
    core.run_phase("before", 96, index=0)
    decision = core.process(ChainEvent(
        at=1, action="scale", chain="c5",
        t_min_mbps=5000.0, t_max_mbps=12000.0,
    ))
    assert decision.accepted
    assert core.rates["c5"] == pytest.approx(6000.0)
    assert_links_hold()
    phase = core.run_phase("after", 96, index=1)
    row = next(r for r in phase.chains if r.chain_name == "c5")
    assert (row.injected, row.delivered) == (96, 96)


def test_a_link_two_racks_share_is_never_over_committed():
    """A line r0–r1–r2 with a 30 Gbps r0~r1: eleven chains fill r0,
    then r1, and spill one to r2, so r0~r1 carries both satellites'
    chains. Each rack's link row leaves the other rack's share: scaling
    every satellite chain to 6 000 / 12 000 Mbps never puts more on the
    link than it carries, and the phase after drops nothing at it."""
    registry = MetricsRegistry()
    core = AdmissionCore(_run_spec(11, TopologySpec(
        racks=tuple(RackSpec(name=f"r{i}") for i in range(3)),
        links=(InterRackLinkSpec(a="r0", b="r1", capacity_mbps=30000.0),
               InterRackLinkSpec(a="r1", b="r2", capacity_mbps=40000.0)),
    )), registry=registry)

    def shared_load():
        loads = link_loads(core.placement.remote, core.rates)
        assert loads.get("r1~r2", 0.0) <= 40000.0
        return loads["r0~r1"]

    core.bootstrap()
    assert {"r1", "r2"} <= set(core.assignment.values())
    assert core.routes["r2"].links == ("r0~r1", "r1~r2")
    assert shared_load() <= 30000.0
    satellites = sorted(
        chain for chain, rack in core.assignment.items() if rack != "r0"
    )
    for tick, chain in enumerate(satellites, start=1):
        decision = core.process(ChainEvent(
            at=tick, action="scale", chain=chain,
            t_min_mbps=6000.0, t_max_mbps=12000.0,
        ))
        if decision.accepted:
            assert shared_load() <= 30000.0 * (1.0 + 1e-9)
    phase = core.run_phase("after", 32, index=1)
    assert all(row.delivered == row.injected for row in phase.chains)
    assert registry.counter_value("interrack.drops", link="r0~r1") == 0
