"""Testbed simulator and deployed-rack runtime tests."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.exceptions import DataplaneError
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack
from repro.sim.testbed import TestbedSimulator
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def place(spec, profiles, topology=None, slos=None):
    topology = topology or topology_for("paper-testbed").build()
    chains = chains_from_spec(
        spec, slos=slos or [SLO(t_min=gbps(1), t_max=gbps(40))]
    )
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    return topology, placement


class TestFluidMeasurement:
    def test_measured_close_to_predicted(self, profiles):
        topology, placement = place(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        sim = TestbedSimulator(topology=topology, profiles=profiles)
        report = sim.run(placement)
        (m,) = report.measurements
        assert m.achieved_mbps == pytest.approx(m.predicted_mbps, rel=0.10)

    def test_predictions_conservative_on_average(self, profiles):
        """§5.2: worst-case NUMA-diff profiles make predictions
        conservative; measured >= predicted most of the time."""
        topology, placement = place(
            "chain a: ACL -> Encrypt -> IPv4Fwd\n"
            "chain b: BPF -> Dedup -> IPv4Fwd",
            profiles,
            slos=[SLO(t_min=gbps(1), t_max=gbps(40)),
                  SLO(t_min=gbps(0.3), t_max=gbps(40))],
        )
        wins = 0
        for seed in range(8):
            sim = TestbedSimulator(topology=topology, profiles=profiles,
                                   seed=seed)
            report = sim.run(placement)
            if report.aggregate_throughput_mbps >= sum(
                m.predicted_mbps for m in report.measurements
            ):
                wins += 1
        assert wins >= 5

    def test_slos_met_on_feasible_placement(self, profiles):
        topology, placement = place(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        report = TestbedSimulator(topology=topology,
                                  profiles=profiles).run(placement)
        assert report.all_slos_met

    def test_infeasible_placement_refused(self, profiles):
        from repro.core.placement import Placement
        sim = TestbedSimulator(profiles=profiles)
        with pytest.raises(DataplaneError):
            sim.run(Placement(chains=[], feasible=False))

    def test_deterministic_for_seed(self, profiles):
        topology, placement = place(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        r1 = TestbedSimulator(topology=topology, profiles=profiles,
                              seed=9).run(placement)
        r2 = TestbedSimulator(topology=topology, profiles=profiles,
                              seed=9).run(placement)
        assert r1.aggregate_throughput_mbps == \
            pytest.approx(r2.aggregate_throughput_mbps)


class TestDeployedRack:
    def _rack(self, spec, profiles, topology=None, slos=None):
        topology, placement = place(spec, profiles, topology, slos)
        meta = MetaCompiler(topology=topology, profiles=profiles)
        artifacts = meta.compile_placement(placement)
        return DeployedRack(topology, artifacts, profiles), placement

    def test_linear_chain_delivery(self, profiles):
        rack, placement = self._rack(
            "chain a: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        traces = rack.trace_chains(placement, packets_per_chain=16)
        assert traces["a"].delivered == 16
        # NF trail covers all three NFs in order
        trail = traces["a"].nf_trail
        assert len(trail) == 3

    def test_branch_chain_traffic_split(self, profiles):
        rack, placement = self._rack(
            "chain a: BPF -> [Encrypt, Monitor] -> IPv4Fwd", profiles,
            slos=[SLO(t_min=gbps(0.2), t_max=gbps(40))],
        )
        cp = placement.chains[0]
        chosen = set()
        for i in range(40):
            from repro.sim.runtime import _chain_packet
            pkt = _chain_packet(cp.chain, i)
            path = rack.classify(cp, pkt)
            chosen.add(path.spi)
        assert len(chosen) == 2  # both arms exercised

    def test_conditional_branch_classification(self, profiles):
        rack, placement = self._rack(
            "chain a: ACL -> [{'dst_port': 443}: Encrypt, default: pass]"
            " -> IPv4Fwd",
            profiles,
            slos=[SLO(t_min=gbps(0.2), t_max=gbps(40))],
        )
        from repro.net.packet import Packet
        cp = placement.chains[0]
        https = Packet.build(dst_port=443)
        http = Packet.build(dst_port=80)
        path_https = rack.classify(cp, https)
        path_http = rack.classify(cp, http)
        assert len(path_https.node_ids) == 3  # through Encrypt
        assert len(path_http.node_ids) == 2   # passthrough

    def test_acl_drop_counted(self, profiles):
        rack, placement = self._rack(
            "chain a: ACL(rules=[{'dst_ip': '10.0.0.0/8', 'drop': True}])"
            " -> Encrypt -> IPv4Fwd",
            profiles,
            slos=[SLO(t_min=gbps(0.1), t_max=gbps(40))],
        )
        traces = rack.trace_chains(placement, packets_per_chain=10)
        assert traces["a"].dropped == 10  # generator targets 10.0.0.0/8

    def test_smartnic_in_path(self, profiles):
        topology = topology_for("paper-smartnic").build()
        rack, placement = self._rack(
            "chain a: BPF -> FastEncrypt -> IPv4Fwd", profiles,
            topology=topology,
            slos=[SLO(t_min=gbps(1), t_max=gbps(39))],
        )
        cp = placement.chains[0]
        from repro.hw.platform import Platform
        assert any(a.platform is Platform.SMARTNIC
                   for a in cp.assignment.values())
        traces = rack.trace_chains(placement, packets_per_chain=8)
        assert traces["a"].delivered == 8
        assert rack.nics["agilio0"].tx == 8

    def test_openflow_rack(self, profiles):
        topology = topology_for("paper-openflow").build()
        rack, placement = self._rack(
            "chain a: Detunnel -> Encrypt -> ACL", profiles,
            topology=topology,
            slos=[SLO(t_min=gbps(0.1), t_max=gbps(9))],
        )
        traces = rack.trace_chains(placement, packets_per_chain=8)
        assert traces["a"].delivered == 8
