"""Hierarchical multi-rack placement: partition + per-rack solves + links."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.hierarchy import MultiRackPlacer
from repro.core.placer import (
    MultiRackOptions,
    Placer,
    PlacementRequest,
)
from repro.exceptions import PlacementError
from repro.hw.spec import InterRackLinkSpec, RackSpec, TopologySpec, topology_for
from repro.profiles.defaults import default_profiles


def _chains(n, t_min=4000.0, t_max=9000.0, d_max=400.0):
    spec = "\n".join(
        f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(n)
    )
    slos = [SLO(t_min=t_min, t_max=t_max, d_max=d_max) for _ in range(n)]
    return chains_from_spec(spec, slos=slos)


@pytest.fixture()
def profiles():
    return default_profiles()


class TestHierarchicalSolve:
    def test_infeasible_on_one_rack_admitted_on_two(self, profiles):
        """The headline scenario: a chain set one rack cannot hold is
        admitted by the fabric, with the overflow homed remotely."""
        chains = _chains(8)
        single = Placer(topology=topology_for("paper-testbed").build(),
                        profiles=profiles)
        flat = single.solve(PlacementRequest(chains=chains)).placement
        assert not flat.feasible

        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        report = placer.solve(PlacementRequest.multi_rack(chains=chains))
        placement = report.placement
        assert placement.feasible, placement.infeasible_reason
        assert set(placement.partition.assignment.values()) == {"r0", "r1"}
        assert placement.remote  # at least one chain pays the fabric RTT
        for chain in placement.remote:
            assert placement.rtt_of(chain) == 100.0
            assert placement.rack_of(chain) == "r1"
        # every chain got a rate meeting its floor
        for chain in chains:
            assert placement.rate_of(chain.name) >= chain.slo.t_min - 1e-6
        assert report.seconds > 0

    def test_remote_chains_hand_down_shrunk_d_max(self, profiles):
        """Rack cores must guard d_max minus the fabric RTT, so the
        end-to-end bound still holds once the RTT is stamped."""
        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        placement = placer.solve(
            PlacementRequest.multi_rack(chains=_chains(6))
        ).placement
        assert placement.feasible
        for cp in placement.placement_for("r1").chains:
            if cp.name in placement.remote:
                assert cp.chain.slo.d_max == pytest.approx(400.0 - 100.0)

    def test_partition_error_becomes_infeasible_report(self, profiles):
        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        report = placer.solve(
            PlacementRequest.multi_rack(chains=_chains(12))
        )
        assert not report.placement.feasible
        assert "cores exhausted" in report.placement.infeasible_reason

    def test_warm_start_and_failures_rejected(self, profiles):
        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        chains = _chains(2)
        base = Placer(profiles=profiles).solve(
            PlacementRequest(chains=chains)
        ).placement
        with pytest.raises(PlacementError, match="base_placement"):
            placer.solve(PlacementRequest(chains=chains,
                                          base_placement=base))
        with pytest.raises(PlacementError, match="failed_devices"):
            placer.solve(PlacementRequest(chains=chains,
                                          failed_devices=("r0.server0",)))

    def test_rack_pins_keep_homes(self, profiles):
        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        placement = placer.solve(PlacementRequest.multi_rack(
            chains=_chains(2), rack_pins={"c1": "r1"},
        )).placement
        assert placement.feasible
        assert placement.rack_of("c0") == "r0"
        assert placement.rack_of("c1") == "r1"


class TestLinkCapacityPostPass:
    def test_overloaded_link_sheds_marginal_rate(self, profiles):
        """A pinned remote chain whose LP rate exceeds the link is held
        to the link capacity by its rack's link row — never below its
        t_min floor."""
        fabric = TopologySpec(
            racks=(RackSpec(name="r0"), RackSpec(name="r1")),
            links=(InterRackLinkSpec(a="r0", b="r1",
                                     capacity_mbps=5000.0),),
        ).build()
        placer = MultiRackPlacer(fabric=fabric, profiles=profiles)
        placement = placer.solve(PlacementRequest.multi_rack(
            chains=_chains(1, t_min=4000.0, t_max=9000.0),
            rack_pins={"c0": "r1"},
        )).placement
        assert placement.feasible
        assert placement.rates["c0"] == pytest.approx(5000.0)
        # the per-rack placement agrees
        assert placement.placement_for("r1").rates["c0"] == \
            pytest.approx(5000.0)

    def test_floors_over_link_capacity_infeasible(self, profiles):
        fabric = TopologySpec(
            racks=(RackSpec(name="r0"), RackSpec(name="r1")),
            links=(InterRackLinkSpec(a="r0", b="r1",
                                     capacity_mbps=5000.0),),
        ).build()
        placer = MultiRackPlacer(fabric=fabric, profiles=profiles)
        report = placer.solve(PlacementRequest.multi_rack(
            chains=_chains(2, t_min=4000.0),
            rack_pins={"c0": "r1", "c1": "r1"},
        ))
        assert not report.placement.feasible
        assert "capacity exhausted" in report.placement.infeasible_reason


    def test_racks_sharing_a_link_split_it_floors_first(self, profiles):
        """A line r0–r1–r2: r0~r1 carries both satellites' chains. r1
        solves first and leaves r2's floor on the shared link, so both
        fit and together fill it."""
        fabric = TopologySpec(
            racks=tuple(RackSpec(name=f"r{i}") for i in range(3)),
            links=(InterRackLinkSpec(a="r0", b="r1", capacity_mbps=10000.0),
                   InterRackLinkSpec(a="r1", b="r2", capacity_mbps=40000.0)),
        ).build()
        placement = MultiRackPlacer(fabric=fabric, profiles=profiles).solve(
            PlacementRequest.multi_rack(
                chains=_chains(2, t_min=4000.0, t_max=9000.0),
                rack_pins={"c0": "r1", "c1": "r2"},
            )).placement
        assert placement.feasible
        assert placement.rates["c0"] == pytest.approx(6000.0)
        assert placement.rates["c1"] == pytest.approx(4000.0)


class TestRepeatSolve:
    @pytest.mark.parametrize("pins", [None, {"c0": "r0", "c1": "r1"}],
                             ids=["partitioned", "one-rack-per-chain"])
    def test_repeat_solve_is_identical(self, profiles, pins):
        placer = MultiRackPlacer(
            fabric=topology_for("two-rack").build(), profiles=profiles,
        )
        chains = _chains(2 if pins else 6)
        first, again = (
            placer.solve(PlacementRequest.multi_rack(
                chains=chains, rack_pins=pins,
            )).placement
            for _ in range(2)
        )
        assert first.feasible
        assert sorted(first.reports) == ["r0", "r1"]
        assert again.describe() == first.describe()
        assert again.rates == first.rates


class TestRequestSurface:
    def test_multi_rack_constructor_builds_options(self):
        request = PlacementRequest.multi_rack(
            chains=_chains(1), rack_pins={"c0": "r1"}, ingress="r0",
        )
        assert isinstance(request.multi_rack, MultiRackOptions)
        assert request.multi_rack.pins() == {"c0": "r1"}
        assert request.multi_rack.ingress == "r0"

    def test_single_rack_placer_rejects_fabric_request(self):
        request = PlacementRequest.multi_rack(chains=_chains(1))
        with pytest.raises(PlacementError, match="MultiRackPlacer"):
            Placer().solve(request)
