"""Cross-platform runtime edge cases: multi-server racks, stateful NFs on
the ToR, packet conservation."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def deploy(spec, profiles, topology=None, slos=None):
    topology = topology or topology_for("paper-testbed").build()
    chains = chains_from_spec(
        spec, slos=slos or [SLO(t_min=gbps(0.5), t_max=gbps(30))]
    )
    placement = heuristic_place(chains, topology, profiles)
    assert placement.feasible, placement.infeasible_reason
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    return DeployedRack(topology, artifacts, profiles), placement


class TestMultiServerTracing:
    def test_chains_split_across_servers_deliver(self, profiles):
        topology = topology_for("multi-server").build()
        spec = (
            "chain a: ACL -> Encrypt -> IPv4Fwd\n"
            "chain b: BPF -> Dedup -> IPv4Fwd\n"
            "chain c: ACL -> UrlFilter -> IPv4Fwd"
        )
        slos = [SLO(t_min=gbps(1), t_max=gbps(30)),
                SLO(t_min=gbps(0.3), t_max=gbps(30)),
                SLO(t_min=gbps(1), t_max=gbps(30))]
        rack, placement = deploy(spec, profiles, topology, slos)
        servers_used = {
            sg.server for cp in placement.chains for sg in cp.subgroups
        }
        assert servers_used == {"server0", "server1"}  # really spread out
        traces = rack.trace_chains(placement, packets_per_chain=8)
        for trace in traces.values():
            assert trace.delivered == 8


class TestStatefulOnSwitch:
    def test_switch_nat_keeps_state_across_packets(self, profiles):
        """NAT placed on the PISA switch must still translate flows
        consistently (the functional model is shared state on the ToR)."""
        rack, placement = deploy(
            "chain c: ACL -> NAT -> IPv4Fwd", profiles
        )
        cp = placement.chains[0]
        nat_node = next(
            nid for nid, n in cp.chain.graph.nodes.items()
            if n.nf_class == "NAT"
        )
        assert cp.assignment[nat_node].platform is Platform.PISA
        from repro.net.packet import Packet
        outs = []
        for _ in range(3):
            pkt = Packet.build(src_ip="10.3.3.3", dst_ip="10.0.0.2",
                               src_port=999)
            outs.append(rack.run(cp, [pkt]).outputs[0])
        ports = {out.udp.src_port for out in outs}
        assert len(ports) == 1  # same flow, same translation


class TestPacketConservation:
    def test_no_duplication_through_branches(self, profiles):
        """Exactly one packet egresses per injected packet (branch arms
        are exclusive, not multicast)."""
        rack, placement = deploy(
            "chain c: BPF -> [Encrypt, Monitor, Tunnel] -> IPv4Fwd",
            profiles,
        )
        cp = placement.chains[0]
        for index in range(12):
            out = rack.run(cp, [_chain_packet(cp.chain, index)]).outputs[0]
            assert out is not None  # exactly one, not a list

    def test_payload_integrity_through_encrypt_decrypt(self, profiles):
        rack, placement = deploy(
            "chain c: Encrypt -> Decrypt -> IPv4Fwd", profiles,
            slos=[SLO(t_min=gbps(0.5), t_max=gbps(18))],
        )
        cp = placement.chains[0]
        pkt = _chain_packet(cp.chain, 0)
        original_payload = pkt.payload
        out = rack.run(cp, [pkt]).outputs[0]
        assert out is not None
        assert out.payload == original_payload

    def test_tunnel_detunnel_roundtrip_across_platforms(self, profiles):
        """Tunnel on the switch, Encrypt on the server, Detunnel on the
        switch: the VLAN tag must survive the NSH bounce."""
        rack, placement = deploy(
            "chain c: Tunnel -> Encrypt -> Detunnel -> IPv4Fwd", profiles
        )
        cp = placement.chains[0]
        pkt = _chain_packet(cp.chain, 0)
        assert pkt.vlan is None
        out = rack.run(cp, [pkt]).outputs[0]
        assert out is not None
        assert out.vlan is None  # pushed then popped
        trail = out.metadata.processed_by
        assert len(trail) == 4
