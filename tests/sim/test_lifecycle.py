"""Online chain lifecycle: admission, incremental placement, delta
redeploy, and deterministic reporting."""

from dataclasses import replace

import pytest

from repro.chain.slo import SLO
from repro.exceptions import LifecycleError
from repro.obs import MetricsRegistry, scoped_registry
from repro.sim.lifecycle import (
    ChainEvent,
    LifecycleSpec,
    LifecycleTimeline,
    run_lifecycle,
    run_lifecycle_checked,
)
from repro.units import gbps

SPEC = (
    "chain alpha: ACL -> Encrypt -> IPv4Fwd\n"
    "chain beta: BPF -> NAT -> IPv4Fwd\n"
)

GAMMA = ChainEvent(
    at=1, action="arrive", chain="gamma",
    spec="chain gamma: Monitor -> IPv4Fwd",
    t_min_mbps=gbps(0.5), t_max_mbps=gbps(30),
)


def make_spec(events, slos=((gbps(1), gbps(50)), (gbps(1), gbps(50))),
              **kwargs):
    return LifecycleSpec(
        spec_text=SPEC,
        slos=slos,
        timeline=LifecycleTimeline(events=tuple(events), seed=23),
        packets_per_phase=kwargs.pop("packets_per_phase", 32),
        **kwargs,
    )


def run(spec):
    return run_lifecycle(spec, registry=MetricsRegistry())


class TestTimeline:
    def test_json_round_trip(self):
        timeline = LifecycleTimeline(events=(
            GAMMA,
            ChainEvent(at=2, action="scale", chain="alpha",
                       t_min_mbps=2000.0),
            ChainEvent(at=3, action="depart", chain="gamma"),
        ), seed=7)
        again = LifecycleTimeline.parse_json(timeline.to_json())
        assert again == timeline

    def test_json_is_strict_and_an_unbounded_slo_round_trips(self):
        """No bare ``Infinity`` token: an unbounded cap or delay bound is
        left out of the wire form, and parsing restores ``inf``."""
        import json

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        timeline = LifecycleTimeline.random(seed=1)
        unbounded = [ev for ev in timeline.events
                     if ev.t_max_mbps == float("inf")
                     or ev.d_max_us == float("inf")]
        assert unbounded  # the seed exercises the case
        text = timeline.to_json()
        doc = json.loads(text, parse_constant=refuse)
        assert LifecycleTimeline.from_dict(doc) == timeline
        assert LifecycleTimeline.parse_json(text) == timeline
        for ev, wire in zip(timeline.events, doc["events"]):
            assert ("t_max_mbps" in wire) == (ev.t_max_mbps != float("inf"))
            assert ("d_max_us" in wire) == (ev.d_max_us != float("inf"))

    def test_parse_rejects_unknown_fields(self):
        import json

        doc = json.loads(LifecycleTimeline(events=(GAMMA,)).to_json())
        with pytest.raises(LifecycleError, match="unknown fields"):
            LifecycleTimeline.from_dict(dict(doc, tempo=1))
        bad_event = dict(doc)
        bad_event["events"] = [dict(doc["events"][0], priority=2)]
        with pytest.raises(LifecycleError, match="unknown fields"):
            LifecycleTimeline.from_dict(bad_event)

    @pytest.mark.parametrize("fields", [
        dict(t_min_mbps=float("nan")),
        dict(t_min_mbps=float("inf")),
        dict(action="scale", spec="", t_min_mbps=float("nan")),
        dict(t_max_mbps=float("nan")),
        dict(t_max_mbps=100.0),
        dict(action="scale", spec="", t_min_mbps=1500.0, t_max_mbps=1000.0),
        dict(d_max_us=float("nan")),
        dict(d_max_us=0.0),
        dict(d_max_us=-5.0),
        dict(spec="chain gamma: [ACL, ACL] -> IPv4Fwd"),
    ], ids=[
        "nan-floor", "infinite-floor", "scale-nan-floor", "nan-cap",
        "cap-below-floor", "scale-cap-below-floor", "nan-delay",
        "zero-delay", "negative-delay", "spec-graph-error",
    ])
    def test_parse_rejects_hostile_slo_or_spec(self, fields):
        """The wire form of a timeline is refused as a whole when one
        event's numbers or spec could not be an SLO contract."""
        import json

        doc = json.loads(LifecycleTimeline(events=(GAMMA,)).to_json())
        doc["events"] = [dict(doc["events"][0], **fields)]
        with pytest.raises(LifecycleError):
            LifecycleTimeline.from_dict(doc)

    def test_parse_rejects_non_object(self):
        with pytest.raises(LifecycleError):
            LifecycleTimeline.parse_json("42")

    def test_same_tick_orders_departures_first(self):
        timeline = LifecycleTimeline(events=(
            ChainEvent(at=1, action="arrive", chain="dyn0",
                       spec="chain dyn0: Monitor -> IPv4Fwd",
                       t_min_mbps=100.0),
            ChainEvent(at=1, action="depart", chain="alpha"),
        ))
        assert [ev.action for ev in timeline.sorted_events()] == \
            ["depart", "arrive"]

    @pytest.mark.parametrize("event,fragment", [
        (ChainEvent(at=1, action="evict", chain="x"), "unknown"),
        (ChainEvent(at=-1, action="depart", chain="x"), "tick"),
        (ChainEvent(at=1, action="arrive", chain="x", t_min_mbps=1.0),
         "no chain spec"),
        (ChainEvent(at=1, action="arrive", chain="x",
                    spec="chain y: ACL -> IPv4Fwd", t_min_mbps=1.0),
         "exactly that one chain"),
        (ChainEvent(at=1, action="arrive", chain="x",
                    spec="chain x: ACL -> IPv4Fwd"), "t_min"),
        (ChainEvent(at=1, action="scale", chain="x"), "t_min"),
    ])
    def test_validation_rejects(self, event, fragment):
        with pytest.raises(LifecycleError, match=fragment):
            LifecycleTimeline(events=(event,)).validate()

    def test_random_is_seed_deterministic(self):
        a = LifecycleTimeline.random(5, n_events=10, base_names=("alpha",))
        b = LifecycleTimeline.random(5, n_events=10, base_names=("alpha",))
        assert a == b
        assert len(a.events) == 10
        a.validate()
        c = LifecycleTimeline.random(6, n_events=10, base_names=("alpha",))
        assert c != a


class TestAdmission:
    def test_arrival_accepted_incrementally(self):
        report = run(make_spec([GAMMA]))
        (decision,) = report.decisions
        assert decision.accepted
        assert decision.mode == "incremental"
        assert decision.pinned == 2 and decision.placed == 1
        assert decision.rebuilt  # something changed on the rack
        # gamma is live and served at or above t_min in the new phase
        last = report.phases[-1]
        assert {row.chain_name for row in last.chains} == \
            {"alpha", "beta", "gamma"}
        assert last.compliant

    def test_arrival_feasible_only_after_same_tick_departure(self):
        # Five Encrypt chains at a 5G floor occupy every server core;
        # a sixth fits only once one of them releases its cores, and
        # departures are processed before arrivals within a tick.
        n = 5
        steady = LifecycleSpec(
            spec_text="\n".join(
                f"chain c{i}: Encrypt -> NAT -> IPv4Fwd" for i in range(n)),
            slos=tuple((gbps(5), gbps(6)) for _ in range(n)),
            timeline=LifecycleTimeline(events=()),
            packets_per_phase=32,
        )
        arrival = ChainEvent(
            at=1, action="arrive", chain="gamma",
            spec="chain gamma: Encrypt -> NAT -> IPv4Fwd",
            t_min_mbps=gbps(5), t_max_mbps=gbps(6),
        )
        rejected = run(replace(
            steady, timeline=LifecycleTimeline(events=(arrival,))))
        (decision,) = rejected.decisions
        assert not decision.accepted
        assert "not enough cores" in decision.reason
        # the running chains were untouched by the rejection
        assert rejected.phases[-1].compliant
        assert {row.chain_name for row in rejected.phases[-1].chains} == \
            {f"c{i}" for i in range(n)}

        paired = run(replace(steady, timeline=LifecycleTimeline(events=(
            arrival, ChainEvent(at=1, action="depart", chain="c0")))))
        departs, arrives = paired.decisions
        assert departs.action == "depart" and departs.accepted
        assert arrives.action == "arrive" and arrives.accepted
        assert {row.chain_name for row in paired.phases[-1].chains} == \
            {f"c{i}" for i in range(1, n)} | {"gamma"}
        assert paired.phases[-1].compliant

    def test_scale_up_rejects_instead_of_evicting(self):
        slos = ((gbps(20), gbps(50)), (gbps(15), gbps(50)))
        report = run(make_spec(
            [ChainEvent(at=1, action="scale", chain="alpha",
                        t_min_mbps=gbps(33))],
            slos=slos,
        ))
        (decision,) = report.decisions
        assert not decision.accepted
        assert "stuck at" in decision.reason
        # beta was NOT evicted to make room, and alpha kept its old floor
        last = report.phases[-1]
        assert {row.chain_name for row in last.chains} == {"alpha", "beta"}
        assert last.t_mins["alpha"] == gbps(20)
        assert last.compliant

    def test_static_rejections(self):
        report = run(make_spec([
            ChainEvent(at=1, action="depart", chain="nope"),
            ChainEvent(at=2, action="arrive", chain="alpha",
                       spec="chain alpha: ACL -> IPv4Fwd",
                       t_min_mbps=100.0),
        ]))
        unknown, duplicate = report.decisions
        assert not unknown.accepted and "no active chain" in unknown.reason
        assert not duplicate.accepted and \
            "already active" in duplicate.reason

    def test_warm_incremental_solve_on_repeated_pattern(self):
        # gamma arrives, departs, then arrives again with the same SLO:
        # the second admission poses the identical warm-start problem and
        # solves it again, to the same answer.
        report = run(make_spec([
            GAMMA,
            ChainEvent(at=2, action="depart", chain="gamma"),
            ChainEvent(at=3, action="arrive", chain="gamma",
                       spec=GAMMA.spec, t_min_mbps=GAMMA.t_min_mbps,
                       t_max_mbps=GAMMA.t_max_mbps),
        ]))
        first, depart, second = report.decisions
        assert first.accepted and depart.accepted and second.accepted
        assert replace(second, tick=first.tick, seconds=0.0) \
            == replace(first, seconds=0.0)

    def test_admission_counters(self):
        registry = MetricsRegistry()
        run_lifecycle(make_spec([
            GAMMA,
            ChainEvent(at=2, action="depart", chain="nope"),
        ]), registry=registry)
        assert registry.counter_value(
            "lifecycle.admission", decision="accepted", action="arrive"
        ) == 1
        assert registry.counter_value(
            "lifecycle.admission", decision="rejected", action="depart"
        ) == 1

    def test_every_layer_reports_to_the_given_registry(self):
        """The solver and LP under the core record where the core does,
        not in whatever registry is the process default."""
        mine = MetricsRegistry()
        with scoped_registry() as ambient:
            run_lifecycle(make_spec([GAMMA]), registry=mine)
        assert mine.counter_value("lp.solves", objective="marginal") >= 1
        assert mine.counter_value(
            "placer.placements", strategy="lemur", feasible="true") >= 1
        assert not list(ambient.counters())
        assert not list(ambient.histograms())


class TestDeltaRedeploy:
    def test_identical_artifacts_reuse_every_device(self, simple_chains):
        from repro.core.placer import Placer, PlacementRequest
        from repro.metacompiler.compiler import MetaCompiler
        from repro.sim.runtime import DeployedRack

        placer = Placer()
        placement = placer.solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        meta = MetaCompiler(topology=placer.topology,
                            profiles=placer.profiles)
        rack = DeployedRack(placer.topology, meta.compile_placement(placement),
                            placer.profiles, registry=MetricsRegistry())
        result = rack.redeploy(meta.compile_placement(placement))
        assert result.rebuilt == [] and result.removed == []
        assert set(result.reused) == {
            placer.topology.switch.name, *rack.servers, *rack.nics
        }

    def test_redeploy_rebuilds_exactly_the_changed_fingerprints(
            self, simple_chains):
        from repro.chain.graph import chains_from_spec
        from repro.core.placer import Placer, PlacementRequest
        from repro.metacompiler.compiler import MetaCompiler
        from repro.sim.runtime import DeployedRack

        placer = Placer()
        base = placer.solve(PlacementRequest(chains=simple_chains))
        meta = MetaCompiler(topology=placer.topology,
                            profiles=placer.profiles)
        before = meta.compile_placement(base.placement)
        rack = DeployedRack(placer.topology, before, placer.profiles,
                            registry=MetricsRegistry())

        (gamma,) = chains_from_spec("chain gamma: Monitor -> IPv4Fwd")
        gamma = gamma.with_slo(SLO(t_min=gbps(0.5), t_max=gbps(30)))
        grown = placer.solve(PlacementRequest(
            chains=list(simple_chains) + [gamma],
            base_placement=base.placement,
        ))
        after = meta.compile_placement(grown.placement)

        switch = placer.topology.switch.name
        old_fp = before.device_fingerprints(switch)
        new_fp = after.device_fingerprints(switch)
        result = rack.redeploy(after)
        assert set(result.reused) == {
            d for d in new_fp if old_fp.get(d) == new_fp[d]
        }
        assert set(result.rebuilt) == {
            d for d in new_fp if old_fp.get(d) != new_fp[d]
        }
        assert set(result.removed) == set(old_fp) - set(new_fp)
        assert result.rebuilt  # the arrival changed at least one program

    def test_scale_that_changes_no_program_reuses_all_devices(self):
        # rescaling within the existing allocation regenerates identical
        # programs: the delta redeploy must touch nothing.
        report = run(make_spec([
            ChainEvent(at=1, action="scale", chain="beta",
                       t_min_mbps=gbps(2)),
        ]))
        (decision,) = report.decisions
        assert decision.accepted
        assert decision.rebuilt == ()
        assert decision.reused


class TestDeterminism:
    EVENTS = (
        GAMMA,
        ChainEvent(at=2, action="scale", chain="beta",
                   t_min_mbps=gbps(2)),
        ChainEvent(at=3, action="depart", chain="gamma"),
        ChainEvent(at=3, action="arrive", chain="delta",
                   spec="chain delta: ACL -> IPv4Fwd",
                   t_min_mbps=gbps(0.8), t_max_mbps=gbps(20)),
    )

    def test_repeated_runs_render_identically(self):
        a = run(make_spec(self.EVENTS)).render()
        b = run(make_spec(self.EVENTS)).render()
        assert a == b

    def test_jobs_replicas_agree(self):
        spec = make_spec(self.EVENTS)
        serial = run_lifecycle_checked(
            spec, jobs=1, registry=MetricsRegistry()
        ).render()
        checked = run_lifecycle_checked(
            spec, jobs=2, registry=MetricsRegistry()
        ).render()
        assert checked == serial

    def test_every_phase_of_the_e2e_scenario_meets_minimums(self):
        report = run(make_spec(self.EVENTS))
        assert all(d.accepted for d in report.decisions)
        for phase in report.phases:
            for row in phase.chains:
                t_min = phase.t_mins[row.chain_name]
                assert row.delivered_mbps >= t_min * (1 - 1e-9), (
                    f"{row.chain_name} under t_min in phase {phase.label}"
                )


class TestEngineValidation:
    def test_initial_chains_required(self):
        from repro.sim.lifecycle import LifecycleEngine

        with pytest.raises(LifecycleError, match="initial chain"):
            LifecycleEngine(LifecycleSpec(spec_text="", slos=()))

    def test_cannot_depart_last_chain(self):
        spec = LifecycleSpec(
            spec_text="chain solo: ACL -> IPv4Fwd\n",
            slos=((gbps(1), gbps(40)),),
            timeline=LifecycleTimeline(events=(
                ChainEvent(at=1, action="depart", chain="solo"),
            )),
            packets_per_phase=16,
        )
        report = run(spec)
        (decision,) = report.decisions
        assert not decision.accepted
        assert "last active chain" in decision.reason

    def test_infeasible_initial_placement_raises(self):
        from repro.exceptions import PlacementError

        with pytest.raises(PlacementError, match="initial placement"):
            run(make_spec([], slos=((gbps(90), gbps(99)),
                                    (gbps(90), gbps(99)))))
