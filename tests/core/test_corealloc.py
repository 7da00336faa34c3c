"""Core allocation policy tests (§3.2)."""

import random

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.corealloc import (
    CoreAllocation,
    allocate_cores,
    allocate_exhaustive,
)
from repro.core.lp import RateSolution, solve_rates
from repro.core.placement import NodeAssignment
from repro.core.rates import analyze_chain
from repro.core.subgroups import form_subgroups
from repro.hw.pisa import PISASwitch
from repro.hw.platform import Platform
from repro.hw.server import NIC, CPUSocket, Server
from repro.hw.spec import topology_for
from repro.hw.topology import Topology
from repro.profiles.defaults import DEMUX_LB_CYCLES, default_profiles
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def build_cp(spec, slo, profiles, topo, server_nfs):
    chain = chains_from_spec(spec, slos=[slo])[0]
    assignment = {}
    for nid, node in chain.graph.nodes.items():
        platform = (Platform.SERVER if node.nf_class in server_nfs
                    else Platform.PISA)
        device = "server0" if platform is Platform.SERVER else "tofino0"
        assignment[nid] = NodeAssignment(platform, device)
    subgroups = form_subgroups(chain, assignment, profiles)
    return analyze_chain(chain, assignment, subgroups, topo, profiles)


class TestMinimum:
    def test_one_core_each(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt", "Dedup"})
        result = CoreAllocation([cp], topo, policy="none").floor()
        assert result.feasible
        assert all(sg.cores == 1 for sg in cp.subgroups)

    def test_too_many_subgroups_infeasible(self, profiles):
        topo = topology_for("paper-testbed").build()
        cps = [
            build_cp(f"chain c{i}: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                     SLO(t_min=10), profiles, topo, {"Encrypt", "Dedup"})
            for i in range(9)  # 18 subgroups > 15 cores
        ]
        result = CoreAllocation(cps, topo, policy="none").floor()
        assert not result.feasible
        assert "deficit" in result.reason


class TestMeetTmin:
    def test_scales_bottleneck(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=5000, t_max=gbps(100)),
                      profiles, topo, {"Encrypt"})
        result = CoreAllocation([cp], topo).floor()
        assert result.feasible
        assert cp.estimated_rate >= 5000
        (sg,) = cp.subgroups
        assert sg.cores >= 3

    def test_non_replicable_cannot_scale(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Dedup -> Limiter -> IPv4Fwd",
                      SLO(t_min=gbps(2)), profiles, topo,
                      {"Dedup", "Limiter"})
        result = CoreAllocation([cp], topo).floor()
        assert not result.feasible
        assert "stuck" in result.reason


class TestPolicies:
    def test_none_policy_keeps_one_core(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100, t_max=gbps(100)),
                      profiles, topo, {"Encrypt"})
        result = allocate_cores([cp], topo, policy="none")
        assert result.feasible
        assert all(sg.cores == 1 for sg in cp.subgroups)

    def test_none_policy_fails_on_high_tmin(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=5000), profiles, topo, {"Encrypt"})
        result = allocate_cores([cp], topo, policy="none")
        assert not result.feasible

    def test_lemur_policy_spends_all_useful_cores(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=1000, t_max=gbps(100)),
                      profiles, topo, {"Encrypt"})
        result = allocate_cores([cp], topo, policy="lemur")
        assert result.feasible
        (sg,) = cp.subgroups
        assert sg.cores == 15  # only chain: grab everything useful

    def test_lemur_prefers_higher_gain(self, profiles):
        topo = topology_for("paper-testbed").build()
        fast = build_cp("chain fast: ACL -> Encrypt -> IPv4Fwd",
                        SLO(t_min=100, t_max=gbps(100)),
                        profiles, topo, {"Encrypt"})
        slow = build_cp("chain slow: ACL -> Dedup -> IPv4Fwd",
                        SLO(t_min=100, t_max=gbps(100)),
                        profiles, topo, {"Dedup"})
        allocate_cores([fast, slow], topo, policy="lemur")
        fast_cores = fast.subgroups[0].cores
        slow_cores = slow.subgroups[0].cores
        # Encrypt has ~4x the per-core rate of Dedup: greedy marginal gain
        # should favour it
        assert fast_cores > slow_cores

    def test_by_index_pumps_first_chain(self, profiles):
        topo = topology_for("paper-testbed").build()
        first = build_cp("chain a: ACL -> Encrypt -> IPv4Fwd",
                         SLO(t_min=100, t_max=gbps(100)),
                         profiles, topo, {"Encrypt"})
        second = build_cp("chain b: ACL -> Encrypt -> IPv4Fwd",
                          SLO(t_min=100, t_max=gbps(100)),
                          profiles, topo, {"Encrypt"})
        allocate_cores([first, second], topo, policy="by_index")
        assert first.subgroups[0].cores >= second.subgroups[0].cores

    def test_even_policy_balances(self, profiles):
        topo = topology_for("paper-testbed").build()
        cps = [
            build_cp(f"chain c{i}: ACL -> Encrypt -> IPv4Fwd",
                     SLO(t_min=100, t_max=gbps(100)),
                     profiles, topo, {"Encrypt"})
            for i in range(3)
        ]
        allocate_cores(cps, topo, policy="even")
        cores = sorted(cp.subgroups[0].cores for cp in cps)
        assert cores[-1] - cores[0] <= 1

    def test_unknown_policy(self, profiles):
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt"})
        from repro.exceptions import PlacementError
        with pytest.raises(PlacementError):
            allocate_cores([cp], topo, policy="nope")


#: server NFs the seeded exhaustive instances pair up (NAT and Limiter
#: are not replicable)
PAIR_NFS = ("Encrypt", "Decrypt", "Dedup", "NAT", "Limiter", "Monitor",
            "UrlFilter", "BPF", "LB")


def seeded_instance(profiles, seed, nic_mbps=gbps(1000)):
    """A one-server rack of 3-7 cores and 1-3 chains, each a random NF
    pair on the server, either side by side (one subgroup) or split by a
    switch ACL (two). About half the instances set some subgroups'
    cycles under the demux cost, where a second core lowers the rate;
    the default profiles have none. Returns (topology, a factory of
    fresh chain placements, whether any subgroup is under the demux
    cost). The default NIC never binds."""
    rng = random.Random(seed)
    server = Server(name="server0",
                    sockets=[CPUSocket(0, cores=rng.randint(3, 7))],
                    nics=[NIC(rate_mbps=nic_mbps)], reserved_cores=0)
    topo = Topology(switch=PISASwitch(), servers=[server])
    chains = []
    for index in range(rng.randint(1, 3)):
        first, second = rng.sample(PAIR_NFS, 2)
        middle = " -> ACL" if rng.random() < 0.5 else ""
        t_min = rng.uniform(50.0, 1500.0)
        chains.append((
            f"chain c{index}: {first}{middle} -> {second} -> IPv4Fwd",
            SLO(t_min=t_min, t_max=t_min * rng.uniform(1.2, 12.0)),
            {first, second},
        ))
    cheap = []
    if rng.random() < 0.5:
        for ci, (spec, slo, nfs) in enumerate(chains):
            cp = build_cp(spec, slo, profiles, topo, nfs)
            for si in range(len(cp.subgroups)):
                if rng.random() < 0.6:
                    cheap.append(
                        (ci, si, rng.uniform(40.0, DEMUX_LB_CYCLES - 1.0)))

    def fresh():
        cps = [build_cp(spec, slo, profiles, topo, nfs)
               for spec, slo, nfs in chains]
        for ci, si, cycles in cheap:
            cps[ci].subgroups[si].cycles = cycles
        return cps

    return topo, fresh, bool(cheap)


def greedy_and_exhaustive(topo, fresh):
    greedy_cps = fresh()
    result = allocate_cores(greedy_cps, topo, policy="lemur")
    greedy = (solve_rates(greedy_cps, topo) if result.feasible
              else RateSolution(feasible=False, reason=result.reason))
    _alloc, best = allocate_exhaustive(fresh(), topo)
    return greedy, best


EXHAUSTIVE_SEEDS = range(40)


class TestExhaustiveOracle:
    @pytest.mark.parametrize("seed", EXHAUSTIVE_SEEDS)
    def test_greedy_matches_exhaustive_seeded(self, profiles, seed):
        """While no NIC binds, the lemur allocation reaches the exhaustive
        optimum (the claim of ``_maximize_marginal``'s docstring), and
        both agree on which instances are infeasible."""
        greedy, best = greedy_and_exhaustive(
            *seeded_instance(profiles, seed)[:2])
        assert greedy.feasible == best.feasible
        if best.feasible:
            assert greedy.objective_mbps == pytest.approx(
                best.objective_mbps, rel=1e-6)

    def test_seeded_instances_cover_the_demux_dip(self, profiles):
        instances = [seeded_instance(profiles, seed)
                     for seed in EXHAUSTIVE_SEEDS]
        assert sum(cheap for _topo, _fresh, cheap in instances) >= 10
        feasible = sum(
            greedy_and_exhaustive(topo, fresh)[1].feasible
            for topo, fresh, _cheap in instances
        )
        assert feasible >= 25

    @pytest.mark.xfail(strict=True, reason=(
        "the spend ranks gains by capped chain rate and never sees NIC "
        "rows: a core that lifts a two-visit chain the 40 G NIC cannot "
        "carry is wasted (ROADMAP item 6(b))"))
    def test_greedy_spend_ignores_a_binding_nic(self, profiles):
        """c0 crosses the NIC twice, so 2·r0 + r1 ≤ 40 000 binds. The
        greedy gives c0's second subgroup a core (2 452 Mbps of capped
        gain) rather than c1 its fourth (1 206), and the LP trims c0 back:
        18 562 Mbps of marginal rate against the optimum's 19 150."""
        server = Server(name="server0", sockets=[CPUSocket(0, cores=6)],
                        nics=[NIC()], reserved_cores=0)
        topo = Topology(switch=PISASwitch(), servers=[server])

        def fresh():
            return [
                build_cp("chain c0: Monitor -> ACL -> BPF -> IPv4Fwd",
                         SLO(t_min=2500, t_max=24500), profiles, topo,
                         {"Monitor", "BPF"}),
                build_cp("chain c1: BPF -> Decrypt -> IPv4Fwd",
                         SLO(t_min=2000, t_max=7300), profiles, topo,
                         {"BPF", "Decrypt"}),
            ]

        greedy, best = greedy_and_exhaustive(topo, fresh)
        assert best.objective_mbps == pytest.approx(19150.0)
        assert greedy.objective_mbps == pytest.approx(best.objective_mbps,
                                                      rel=1e-6)

    def test_greedy_matches_exhaustive_small(self, profiles):
        """The greedy water-fill should equal the exhaustive optimum on a
        small instance (chain rate is concave in cores)."""
        server = Server(name="server0",
                        sockets=[CPUSocket(0, cores=5, freq_hz=1.7e9)],
                        nics=[NIC()], reserved_cores=1)
        topo = Topology(switch=PISASwitch(), servers=[server])

        def fresh():
            return [
                build_cp("chain a: ACL -> Encrypt -> IPv4Fwd",
                         SLO(t_min=100, t_max=gbps(100)),
                         profiles, topo, {"Encrypt"}),
                build_cp("chain b: ACL -> Dedup -> IPv4Fwd",
                         SLO(t_min=100, t_max=gbps(100)),
                         profiles, topo, {"Dedup"}),
            ]

        greedy_cps = fresh()
        result = allocate_cores(greedy_cps, topo, policy="lemur")
        assert result.feasible
        greedy_obj = solve_rates(greedy_cps, topo).objective_mbps

        exhaustive_cps = fresh()
        _alloc, solution = allocate_exhaustive(exhaustive_cps, topo)
        assert solution.feasible
        assert greedy_obj == pytest.approx(solution.objective_mbps,
                                           rel=1e-6)

    def test_unknown_policy_moves_no_core(self, profiles):
        """The policy is checked before the floor: a refused call leaves
        every core count and estimate as it found them."""
        topo = topology_for("paper-testbed").build()
        cp = build_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt"})
        (sg,) = cp.subgroups
        sg.cores = 7
        cp.estimated_rate = 12345.0
        from repro.exceptions import PlacementError
        with pytest.raises(PlacementError, match="unknown core allocation"):
            allocate_cores([cp], topo, policy="nope")
        assert sg.cores == 7
        assert cp.estimated_rate == 12345.0
