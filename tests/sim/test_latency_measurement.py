"""Packet-level latency measurement vs the Placer's latency model."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def deploy(spec, profiles, slos=None):
    topology = topology_for("paper-testbed").build()
    chains = chains_from_spec(
        spec, slos=slos or [SLO(t_min=gbps(0.5), t_max=gbps(40))]
    )
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    return DeployedRack(topology, artifacts, profiles), placement


class TestLatencyStamping:
    def test_latency_recorded_on_egress(self, profiles):
        rack, placement = deploy("chain a: ACL -> Encrypt -> IPv4Fwd",
                                 profiles)
        cp = placement.chains[0]
        out = rack.run(cp, [_chain_packet(cp.chain, 0)]).outputs[0]
        assert out is not None
        latency = out.metadata.fields["latency_us"]
        assert latency > 0

    def test_measured_below_worst_case_model(self, profiles):
        """The Placer's latency estimate uses worst-case cycle costs, so
        rack-measured latency must not exceed it (same shape as the
        throughput conservatism of §5.2)."""
        rack, placement = deploy(
            "chain a: Encrypt -> ACL -> Dedup -> IPv4Fwd", profiles
        )
        cp = placement.chains[0]
        for index in range(8):
            out = rack.run(cp, [_chain_packet(cp.chain, index)]).outputs[0]
            assert out is not None
            measured = out.metadata.fields["latency_us"]
            assert measured <= cp.latency_us * 1.02

    def test_latency_grows_with_bounces(self, profiles):
        rack1, placement1 = deploy("chain a: ACL -> Encrypt -> IPv4Fwd",
                                   profiles)
        rack2, placement2 = deploy(
            "chain a: Encrypt -> ACL -> Dedup -> IPv4Fwd", profiles
        )
        cp1, cp2 = placement1.chains[0], placement2.chains[0]
        out1 = rack1.run(cp1, [_chain_packet(cp1.chain, 0)]).outputs[0]
        out2 = rack2.run(cp2, [_chain_packet(cp2.chain, 0)]).outputs[0]
        assert out2.metadata.fields["latency_us"] > \
            out1.metadata.fields["latency_us"]

    def test_all_switch_chain_is_fast(self, profiles):
        rack, placement = deploy("chain a: ACL -> NAT -> IPv4Fwd", profiles)
        cp = placement.chains[0]
        out = rack.run(cp, [_chain_packet(cp.chain, 0)]).outputs[0]
        # one switch pass, no bounces: transit only
        assert out.metadata.fields["latency_us"] < 2.0
