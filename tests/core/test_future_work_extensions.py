"""Tests for the implemented future-work extensions: max-min fair rates
(§2 footnote 2), Metron-style steering (§3.2/§4.2), and proactive
failover reserves (§7)."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.corealloc import allocate_cores
from repro.core.heuristic import heuristic_place
from repro.core.lp import solve_rates
from repro.core.placement import ChainPlacement, Subgroup
from repro.core.placer import Placer, PlacerConfig, PlacementRequest
from repro.exceptions import PlacementError
from repro.hw.spec import topology_for
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def _contended_placement(profiles, topo):
    """Two NIC-sharing chains whose caps each exceed the 40G NIC share.

    Monitor is cheap (~30 G per core), so both chains' subgroup caps sit
    far above the NIC's fair share and the 40 G link is the only binding
    constraint — the regime where the rate split is a pure policy choice.
    """
    spec = (
        "chain fat: ACL -> Monitor -> IPv4Fwd\n"
        "chain thin: BPF -> Monitor -> IPv4Fwd"
    )
    chains = chains_from_spec(spec, slos=[
        SLO(t_min=gbps(2), t_max=gbps(100)),
        SLO(t_min=gbps(1), t_max=gbps(100)),
    ])
    placement = heuristic_place(chains, topo, profiles)
    assert placement.feasible
    return placement


class TestMaxMinFairness:
    def test_equalizes_marginals_under_contention(self, profiles):
        topo = topology_for("paper-testbed").build()
        placement = _contended_placement(profiles, topo)
        fair = solve_rates(placement.chains, topo, objective="max_min")
        assert fair.feasible
        marginals = [
            fair.rates[cp.name] - cp.chain.slo.t_min
            for cp in placement.chains
        ]
        assert marginals[0] == pytest.approx(marginals[1], rel=0.05)

    def test_cap_bound_chain_saturates_not_equalizes(self, profiles):
        """When one chain's capacity cap binds below the fair share, it
        saturates at its cap and the other takes the remaining headroom
        (lexicographic max-min, not naive equalization)."""
        topo = topology_for("paper-testbed").build()
        spec = (
            "chain fat: ACL -> Monitor -> IPv4Fwd\n"
            "chain thin: BPF -> Encrypt -> IPv4Fwd"
        )
        chains = chains_from_spec(spec, slos=[
            SLO(t_min=gbps(2), t_max=gbps(100)),
            SLO(t_min=gbps(1), t_max=gbps(100)),
        ])
        placement = heuristic_place(chains, topo, profiles)
        fair = solve_rates(placement.chains, topo, objective="max_min")
        assert fair.feasible
        thin_cp = next(cp for cp in placement.chains if cp.name == "thin")
        if thin_cp.estimated_rate < gbps(15):  # its cap binds
            assert fair.rates["thin"] == pytest.approx(
                thin_cp.estimated_rate, rel=0.01
            )
            assert fair.rates["fat"] > fair.rates["thin"]

    def test_same_aggregate_when_nic_binds(self, profiles):
        """Fairness re-splits but cannot create capacity."""
        topo = topology_for("paper-testbed").build()
        placement = _contended_placement(profiles, topo)
        marginal = solve_rates(placement.chains, topo, objective="marginal")
        fair = solve_rates(placement.chains, topo, objective="max_min")
        total_marginal = sum(marginal.rates.values())
        total_fair = sum(fair.rates.values())
        assert total_fair <= total_marginal + 1e-6

    def test_virtual_pipe_does_not_drag_floor(self, profiles):
        """A zero-headroom chain saturates instead of capping everyone."""
        topo = topology_for("paper-testbed").build()
        spec = (
            "chain a: ACL -> Encrypt -> IPv4Fwd\n"
            "chain pinned: ACL -> Monitor -> IPv4Fwd"
        )
        chains = chains_from_spec(spec, slos=[
            SLO(t_min=gbps(1), t_max=gbps(100)),
            SLO(t_min=gbps(2), t_max=gbps(2)),  # virtual pipe, headroom 0
        ])
        placement = heuristic_place(chains, topo, profiles)
        fair = solve_rates(placement.chains, topo, objective="max_min")
        assert fair.feasible
        assert fair.rates["pinned"] == pytest.approx(gbps(2))
        assert fair.rates["a"] > gbps(10)  # floor not dragged to zero

    def test_tmin_always_respected(self, profiles):
        topo = topology_for("paper-testbed").build()
        placement = _contended_placement(profiles, topo)
        fair = solve_rates(placement.chains, topo, objective="max_min")
        for cp in placement.chains:
            assert fair.rates[cp.name] >= cp.chain.slo.t_min - 1e-6

    def test_unknown_objective_rejected(self, profiles):
        topo = topology_for("paper-testbed").build()
        placement = _contended_placement(profiles, topo)
        with pytest.raises(ValueError):
            solve_rates(placement.chains, topo, objective="karma")

    def test_placer_config_objective(self, profiles, simple_chains):
        placer = Placer(
            profiles=profiles,
            config=PlacerConfig(rate_objective="max_min"),
        )
        placement = placer.solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        assert placement.feasible


class TestMetronSteering:
    def test_frees_demux_core(self):
        plain = topology_for("paper-testbed").build()
        metron = topology_for("metron").build()
        assert metron.total_server_cores() == plain.total_server_cores() + 1

    def test_no_demux_penalty_on_replication(self, profiles):
        spec = "chain c: ACL -> Encrypt -> IPv4Fwd"
        slos = [SLO(t_min=gbps(6), t_max=gbps(35))]
        plain = heuristic_place(
            chains_from_spec(spec, slos=slos), topology_for("paper-testbed").build(), profiles
        )
        metron = heuristic_place(
            chains_from_spec(spec, slos=slos),
            topology_for("metron").build(), profiles,
        )
        assert plain.feasible and metron.feasible
        assert metron.chains[0].estimated_rate > \
            plain.chains[0].estimated_rate

    def test_allocator_ranks_subgroups_without_the_demux(self):
        """The allocator must rank bottlenecks by the rate the rack has.
        Charging the demux that Metron steering removes, it took the
        900-cycle subgroup at 2 cores (f/540) for slower than the
        500-cycle one at 1 (f/500), granted it a core that gained nothing
        and stopped at 1 + 2 cores and 40.8 Gbps."""
        topo = topology_for("paper-testbed", metron_steering=True).build()
        assert topo.servers[0].allocatable_cores == 16
        (chain,) = chains_from_spec(
            "chain c: ACL -> IPv4Fwd", slos=[SLO(t_min=gbps(1))]
        )
        subgroups = [
            Subgroup("c.sg0", "c", "server0", ("c.n0",), 500.0, True),
            Subgroup("c.sg1", "c", "server0", ("c.n1",), 900.0, True),
        ]
        cp = ChainPlacement(chain=chain, assignment={}, subgroups=subgroups)
        assert allocate_cores([cp], topo).feasible
        assert [sg.cores for sg in subgroups] == [3, 5]
        assert cp.estimated_rate == topo.switch.port_rate_mbps == gbps(100)

    def test_metron_never_worse(self, profiles):
        from repro.experiments.chains import chains_with_delta
        for delta in (0.5, 1.0, 1.5):
            chains = chains_with_delta([1, 2, 3], delta=delta,
                                       profiles=profiles)
            plain = heuristic_place(chains, topology_for("paper-testbed").build(), profiles)
            metron = heuristic_place(
                chains, topology_for("metron").build(), profiles
            )
            if plain.feasible:
                assert metron.feasible
                assert metron.objective_mbps >= plain.objective_mbps - 1e-6


class TestFailoverReserve:
    def test_reserve_shrinks_budget(self, profiles, simple_chains):
        placer = Placer(profiles=profiles)
        reserved = placer.solve(PlacementRequest(
            chains=simple_chains, reserve_cores=5,
        )).placement
        unreserved = placer.solve(
            PlacementRequest(chains=simple_chains)
        ).placement
        assert reserved.feasible
        assert reserved.total_cores()["server0"] <= 10  # 15 - 5
        assert unreserved.total_cores()["server0"] > 10

    def test_topology_restored_after_reserve(self, profiles, simple_chains):
        placer = Placer(profiles=profiles)
        before = placer.topology.servers[0].reserved_cores
        placer.solve(PlacementRequest(
            chains=simple_chains, reserve_cores=3,
        ))
        assert placer.topology.servers[0].reserved_cores == before

    def test_excessive_reserve_rejected(self, profiles, simple_chains):
        placer = Placer(profiles=profiles)
        with pytest.raises(PlacementError):
            placer.solve(PlacementRequest(
                chains=simple_chains, reserve_cores=16,
            ))
        with pytest.raises(PlacementError):
            placer.solve(PlacementRequest(
                chains=simple_chains, reserve_cores=-1,
            ))

    def test_reserve_survives_failover(self, profiles):
        """The point of the reserve: a placement decided with spare cores
        stays feasible when a SmartNIC fails and its NF falls back."""
        topo = topology_for("paper-smartnic").build()
        placer = Placer(topology=topo, profiles=profiles)
        chains = chains_from_spec(
            "chain c: BPF -> FastEncrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(4), t_max=gbps(39))],
        )
        placer.solve(PlacementRequest(chains=chains, reserve_cores=4))
        fallback = placer.solve(PlacementRequest(
            chains=chains, failed_devices=("agilio0",),
        )).placement
        assert fallback.feasible
