"""Rate estimation and LP tests."""

import math

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.lp import nic_headroom, solve_rates
from repro.core.placement import NodeAssignment, Subgroup
from repro.core.rates import (
    analyze_chain,
    estimate_chain_rate,
    subgroup_rate_mbps,
)
from repro.core.subgroups import form_subgroups
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.profiles.defaults import (
    DEMUX_LB_CYCLES,
    default_profiles,
)
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


@pytest.fixture()
def topo():
    return topology_for("paper-testbed").build()


def make_cp(spec, slo, profiles, topo, server_nfs):
    chain = chains_from_spec(spec, slos=[slo])[0]
    assignment = {}
    for nid, node in chain.graph.nodes.items():
        if node.nf_class in server_nfs:
            assignment[nid] = NodeAssignment(Platform.SERVER, "server0")
        else:
            assignment[nid] = NodeAssignment(Platform.PISA, "tofino0")
    subgroups = form_subgroups(chain, assignment, profiles)
    return analyze_chain(chain, assignment, subgroups, topo, profiles)


class TestSubgroupRate:
    def test_single_core_rate(self):
        sg = Subgroup(sg_id="s", chain_name="c", server="server0",
                      node_ids=("n",), cycles=17000, replicable=True)
        rate = subgroup_rate_mbps(sg, freq_hz=1.7e9, packet_bits=12000)
        assert rate == pytest.approx(1.7e9 / 17000 * 12000 / 1e6)

    def test_replication_scales_with_demux_penalty(self):
        sg1 = Subgroup("s", "c", "server0", ("n",), 17000, True, cores=1)
        sg2 = Subgroup("s", "c", "server0", ("n",), 17000, True, cores=2)
        r1 = subgroup_rate_mbps(sg1, 1.7e9)
        r2 = subgroup_rate_mbps(sg2, 1.7e9)
        assert r1 < r2 < 2 * r1  # demux LB cycles shave a bit off 2x
        expected = 2 * 1.7e9 / (17000 + DEMUX_LB_CYCLES) * 12000 / 1e6
        assert r2 == pytest.approx(expected)


class TestAnalyzeChain:
    def test_bounce_counting(self, profiles, topo):
        cp = make_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                     SLO(t_min=100), profiles, topo, {"Encrypt"})
        assert cp.bounces == 1
        cp2 = make_cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt", "Dedup"})
        assert cp2.bounces == 2

    def test_server_visits_match_bounces(self, profiles, topo):
        cp = make_cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                     SLO(t_min=100), profiles, topo, {"Encrypt", "Dedup"})
        assert cp.server_visits["server0"] == pytest.approx(2.0)

    def test_branch_visits_weighted(self, profiles, topo):
        cp = make_cp("chain c: BPF -> [Encrypt, pass] -> IPv4Fwd",
                     SLO(t_min=100), profiles, topo, {"Encrypt"})
        assert cp.server_visits["server0"] == pytest.approx(0.5)

    def test_estimated_rate_is_min_subgroup(self, profiles, topo):
        cp = make_cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                     SLO(t_min=100), profiles, topo, {"Encrypt", "Dedup"})
        rates = [subgroup_rate_mbps(sg, 1.7e9) for sg in cp.subgroups]
        assert cp.estimated_rate == pytest.approx(min(rates))

    def test_all_switch_chain_line_rate(self, profiles, topo):
        cp = make_cp("chain c: ACL -> NAT -> IPv4Fwd",
                     SLO(t_min=100), profiles, topo, set())
        assert cp.estimated_rate == pytest.approx(gbps(100))
        assert cp.bounces == 0
        assert cp.latency_us < 5.0

    def test_latency_grows_with_bounces(self, profiles, topo):
        one = make_cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt"})
        two = make_cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                      SLO(t_min=100), profiles, topo, {"Encrypt", "Dedup"})
        assert two.latency_us > one.latency_us


class TestLP:
    def _cp(self, spec, slo, profiles, topo, server_nfs):
        return make_cp(spec, slo, profiles, topo, server_nfs)

    def test_maximizes_marginal(self, profiles, topo):
        cp = self._cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=1000, t_max=gbps(100)), profiles, topo,
                      {"Encrypt"})
        solution = solve_rates([cp], topo)
        assert solution.feasible
        # single chain: rate = estimated rate (below NIC cap)
        assert solution.rates["c"] == pytest.approx(cp.estimated_rate)
        assert solution.objective_mbps == pytest.approx(
            cp.estimated_rate - 1000
        )

    def test_tmax_caps_rate(self, profiles, topo):
        cp = self._cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100, t_max=1500), profiles, topo,
                      {"Encrypt"})
        cp.estimated_rate = 5000
        solution = solve_rates([cp], topo)
        assert solution.rates["c"] == pytest.approx(1500)

    def test_infeasible_when_estimate_below_tmin(self, profiles, topo):
        cp = self._cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=gbps(50)), profiles, topo, {"Encrypt"})
        solution = solve_rates([cp], topo)
        assert not solution.feasible
        assert "t_min" in solution.reason

    def test_nic_capacity_shared(self, profiles, topo):
        cps = []
        for name in ("a", "b"):
            cp = self._cp(f"chain {name}: ACL -> Encrypt -> IPv4Fwd",
                          SLO(t_min=1000, t_max=gbps(100)), profiles, topo,
                          {"Encrypt"})
            cp.estimated_rate = gbps(50)  # pretend many cores
            cps.append(cp)
        solution = solve_rates(cps, topo)
        assert solution.feasible
        total = sum(solution.rates.values())
        assert total == pytest.approx(gbps(40))  # 40G NIC, 1 visit each

    def test_bounces_charge_nic_twice(self, profiles, topo):
        cp = self._cp("chain c: Encrypt -> ACL -> Dedup -> IPv4Fwd",
                      SLO(t_min=100, t_max=gbps(100)), profiles, topo,
                      {"Encrypt", "Dedup"})
        cp.estimated_rate = gbps(50)
        solution = solve_rates([cp], topo)
        assert solution.rates["c"] == pytest.approx(gbps(20))  # 40G / 2

    def test_headroom_reporting(self, profiles, topo):
        cp = self._cp("chain c: ACL -> Encrypt -> IPv4Fwd",
                      SLO(t_min=100, t_max=gbps(100)), profiles, topo,
                      {"Encrypt"})
        solution = solve_rates([cp], topo)
        headroom = nic_headroom([cp], solution.rates, topo)
        assert headroom["server0"] == pytest.approx(
            gbps(40) - solution.rates["c"]
        )

    def test_empty_input(self, topo):
        assert solve_rates([], topo).feasible

    def _two_chains(self, profiles, topo, t_min):
        return [
            self._cp(f"chain {name}: ACL -> Encrypt -> IPv4Fwd",
                     SLO(t_min=t_min, t_max=gbps(100)), profiles, topo,
                     {"Encrypt"})
            for name in ("a", "b")
        ]

    @pytest.mark.parametrize("objective", ["marginal", "max_min"])
    def test_uplink_row_caps_the_rack_total(self, profiles, topo,
                                            objective):
        """An answer over the rack's uplink headroom is solved again with
        the link row; one within it is kept as it was."""
        cps = self._two_chains(profiles, topo, 100)
        free = solve_rates(cps, topo, objective=objective)
        total = sum(free.rates.values())
        topo.uplink = ("r0~r1", total + 1.0)
        assert solve_rates(cps, topo, objective=objective).rates == \
            free.rates
        topo.uplink = ("r0~r1", total / 2)
        bound = solve_rates(cps, topo, objective=objective)
        assert bound.feasible
        assert sum(bound.rates.values()) == pytest.approx(total / 2)
        assert all(rate >= 100 for rate in bound.rates.values())

    @pytest.mark.parametrize("objective", ["marginal", "max_min"])
    def test_floors_over_the_uplink_are_infeasible(self, profiles, topo,
                                                   objective):
        topo.uplink = ("r0~r1", 1500.0)
        solution = solve_rates(self._two_chains(profiles, topo, 1000),
                               topo, objective=objective)
        assert not solution.feasible
        assert solution.reason == (
            "link r0~r1 capacity exhausted: floors need 2000 Mbps, "
            "link carries 1500 Mbps"
        )
