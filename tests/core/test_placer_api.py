"""Top-level Placer API, brute force, MILP, ablations, and extensions."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.ablations import no_core_allocation_place, no_profiling_place
from repro.core.bruteforce import brute_force_place
from repro.core.milp import milp_place
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementRequest,
    available_strategies,
)
from repro.exceptions import PlacementError
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


class TestPlacerAPI:
    def test_default_strategy_is_lemur(self, simple_chains):
        placer = Placer()
        placement = placer.solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        assert placement.feasible
        assert placement.strategy == "lemur"

    def test_all_strategies_run(self, simple_chains):
        placer = Placer()
        for strategy in available_strategies():
            placement = placer.solve(PlacementRequest(
                chains=simple_chains, strategy=strategy,
            )).placement
            assert placement is not None

    def test_unknown_strategy_raises(self, simple_chains):
        with pytest.raises(PlacementError):
            Placer().solve(PlacementRequest(
                chains=simple_chains, strategy="quantum",
            ))

    def test_solve_reports_wall_clock(self, simple_chains):
        report = Placer().solve(PlacementRequest(chains=simple_chains))
        assert report.placement.feasible
        assert report.seconds > 0

    def test_describe_readable(self, simple_chains):
        placement = Placer().solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        text = placement.describe()
        assert "alpha" in text and "beta" in text
        assert "pisa" in text


class TestRequestValidation:
    """PlacementRequest flag combinations are validated at construction."""

    def test_negative_reserve_cores_rejected(self, simple_chains):
        with pytest.raises(PlacementError, match="non-negative"):
            PlacementRequest(chains=simple_chains, reserve_cores=-1)

    def test_unknown_objective_rejected(self, simple_chains):
        with pytest.raises(PlacementError, match="objective"):
            PlacementRequest(chains=simple_chains, objective="vibes")

    def test_unknown_strategy_rejected_at_construction(self, simple_chains):
        with pytest.raises(PlacementError, match="unknown strategy"):
            PlacementRequest(chains=simple_chains, strategy="quantum")

    def test_warm_start_excludes_failed_devices(self, simple_chains):
        base = Placer().solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        with pytest.raises(PlacementError, match="mutually"):
            PlacementRequest(chains=simple_chains, base_placement=base,
                             failed_devices=("server0",))

    def test_warm_start_excludes_reserve_cores(self, simple_chains):
        base = Placer().solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        with pytest.raises(PlacementError, match="mutually"):
            PlacementRequest(chains=simple_chains, base_placement=base,
                             reserve_cores=2)

    def test_infeasible_base_rejected(self, simple_chains):
        from repro.core.placement import Placement
        dead = Placement(chains=[], feasible=False,
                         infeasible_reason="nope")
        with pytest.raises(PlacementError, match="feasible"):
            PlacementRequest(chains=simple_chains, base_placement=dead)

    def test_multi_rack_constructor_sorts_pins(self, simple_chains):
        request = PlacementRequest.multi_rack(
            chains=simple_chains,
            rack_pins={"beta": "r1", "alpha": "r0"},
        )
        assert request.multi_rack.rack_pins == \
            (("alpha", "r0"), ("beta", "r1"))
        assert request.multi_rack.pins() == {"alpha": "r0", "beta": "r1"}


class TestBruteForce:
    def test_never_below_heuristic(self, profiles):
        from repro.core.heuristic import heuristic_place
        for delta in (0.5, 1.5):
            chains = chains_with_delta([2, 3], delta=delta)
            optimal = brute_force_place(chains, topology_for("paper-testbed").build(), profiles)
            lemur = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
            if lemur.feasible:
                assert optimal.feasible
                assert optimal.objective_mbps >= lemur.objective_mbps - 1e-6

    def test_respects_stage_budget(self, profiles):
        from repro.experiments.chains import nat_stress_chain, base_rate_mbps
        chain = nat_stress_chain(11)
        base = base_rate_mbps(chain, profiles)
        chains = [chain.with_slo(SLO(t_min=0.5 * base, t_max=gbps(100)))]
        placement = brute_force_place(chains, topology_for("paper-testbed").build(), profiles,
                                      per_chain_limit=20)
        assert placement.feasible


class TestMILP:
    def test_linear_chains_solved(self, profiles):
        chains = chains_from_spec(
            "chain a: ACL -> Encrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(1), t_max=gbps(50))],
        )
        placement = milp_place(chains, topology_for("paper-testbed").build(), profiles)
        assert placement.feasible
        assert placement.rates["a"] >= gbps(1)

    def test_branched_chain_rejected(self, profiles, branched_chain):
        with pytest.raises(PlacementError):
            milp_place([branched_chain], topology_for("paper-testbed").build(), profiles)

    def test_infeasible_tmin(self, profiles):
        chains = chains_from_spec(
            "chain a: Dedup -> Limiter -> IPv4Fwd",
            slos=[SLO(t_min=gbps(30))],
        )
        placement = milp_place(chains, topology_for("paper-testbed").build(), profiles)
        assert not placement.feasible

    def test_run_to_completion_fusion(self, profiles):
        """The MILP fuses adjacent server NFs into one segment."""
        chains = chains_from_spec(
            "chain a: Dedup -> UrlFilter -> IPv4Fwd",
            slos=[SLO(t_min=100.0, t_max=gbps(100))],
        )
        placement = milp_place(chains, topology_for("paper-testbed").build(), profiles)
        assert placement.feasible
        (cp,) = placement.chains
        assert len(cp.subgroups) == 1
        assert len(cp.subgroups[0].node_ids) == 2


class TestAblations:
    def test_no_core_allocation_single_core(self, profiles):
        chains = chains_with_delta([2, 3], delta=0.5)
        placement = no_core_allocation_place(chains, topology_for("paper-testbed").build(),
                                             profiles)
        if placement.feasible:
            for cp in placement.chains:
                assert all(sg.cores == 1 for sg in cp.subgroups)

    def test_no_core_allocation_dies_early(self, profiles):
        """Paper: 'this variant can only satisfy SLOs at δ = 0.5'."""
        from repro.core.heuristic import heuristic_place
        ok = no_core_allocation_place(
            chains_with_delta([2, 3], delta=0.5), topology_for("paper-testbed").build(), profiles
        )
        dead = no_core_allocation_place(
            chains_with_delta([2, 3], delta=1.5), topology_for("paper-testbed").build(), profiles
        )
        lemur = heuristic_place(
            chains_with_delta([2, 3], delta=1.5), topology_for("paper-testbed").build(), profiles
        )
        assert ok.feasible
        assert not dead.feasible
        assert lemur.feasible

    def test_no_profiling_weaker_than_lemur(self, profiles):
        from repro.core.heuristic import heuristic_place
        chains = chains_with_delta([1, 2, 3], delta=1.0)
        flat = no_profiling_place(chains, topology_for("paper-testbed").build(), profiles)
        lemur = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
        assert lemur.feasible
        if flat.feasible:
            assert flat.objective_mbps <= lemur.objective_mbps + 1e-6


class TestExtensions:
    def test_failure_replan(self, simple_chains):
        placer = Placer(topology=topology_for("paper-smartnic").build())
        placement = placer.solve(PlacementRequest(
            chains=simple_chains, failed_devices=("agilio0",),
        )).placement
        assert placement.feasible
        # topology restored afterwards
        assert "agilio0" not in placer.topology.failed_devices

    def test_slo_schedule(self, simple_chains):
        placer = Placer()
        schedule = {
            "alpha": [SLO(t_min=gbps(1), t_max=gbps(50)),
                      SLO(t_min=gbps(3), t_max=gbps(50))],
            "beta": [SLO(t_min=gbps(1), t_max=gbps(50)),
                     SLO(t_min=gbps(0.5), t_max=gbps(50))],
        }
        placements = placer.precompute_slo_schedule(simple_chains, schedule)
        assert len(placements) == 2
        assert all(p.feasible for p in placements)
        assert placements[1].chains[0].chain.slo.t_min == gbps(3)

    def test_slo_schedule_mismatched_slots(self, simple_chains):
        placer = Placer()
        with pytest.raises(PlacementError):
            placer.precompute_slo_schedule(
                simple_chains,
                {"alpha": [SLO()], "beta": [SLO(), SLO()]},
            )

    def test_slo_schedule_missing_chain(self, simple_chains):
        placer = Placer()
        with pytest.raises(PlacementError):
            placer.precompute_slo_schedule(simple_chains, {"alpha": [SLO()]})
