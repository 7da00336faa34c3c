"""End-to-end integration: spec → place → compile → execute → measure.

These tests walk Figure 1's full flow on realistic inputs and verify the
cross-cutting invariants that unit tests cannot see.
"""

from collections import Counter

import pytest

from repro import (
    MetaCompiler,
    Placer,
    PlacementRequest,
    SLO,
    chains_from_spec,
    gbps,
    topology_for,
)
from repro.experiments.chains import chains_with_delta
from repro.hw.platform import Platform
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack
from repro.sim.testbed import TestbedSimulator


@pytest.fixture()
def profiles():
    return default_profiles()


class TestFigureOneFlow:
    def test_spec_to_packets(self, profiles):
        topology = topology_for("paper-testbed").build()
        meta = MetaCompiler(topology=topology, profiles=profiles)
        placement, artifacts = meta.compile_spec(
            "chain web: ACL -> UrlFilter -> Encrypt -> IPv4Fwd\n"
            "chain cgn: BPF -> NAT -> IPv4Fwd",
            slos=[SLO(t_min=gbps(1), t_max=gbps(30)),
                  SLO(t_min=gbps(2), t_max=gbps(30))],
        )
        rack = DeployedRack(topology, artifacts, profiles)
        traces = rack.trace_chains(placement, packets_per_chain=12)
        for trace in traces.values():
            assert trace.delivered == 12

    def test_nf_execution_order_matches_chain(self, profiles):
        """The packet's NF trail must equal a topological path of the
        chain DAG — the meta-compiler's core routing guarantee."""
        topology = topology_for("paper-testbed").build()
        meta = MetaCompiler(topology=topology, profiles=profiles)
        placement, artifacts = meta.compile_spec(
            "chain t: BPF -> Dedup -> ACL -> Monitor -> IPv4Fwd",
            slos=[SLO(t_min=gbps(0.3), t_max=gbps(30))],
        )
        rack = DeployedRack(topology, artifacts, profiles)
        cp = placement.chains[0]
        from repro.sim.runtime import _chain_packet
        pkt = _chain_packet(cp.chain, 0)
        out = rack.run(cp, [pkt]).outputs[0]
        assert out is not None
        # map module names back to NF classes, in execution order
        trail_classes = []
        for name in out.metadata.processed_by:
            for nid, node in cp.chain.graph.nodes.items():
                mangled = nid.replace(".", "_")
                if name.endswith(nid) or mangled in name:
                    trail_classes.append(node.nf_class)
                    break
        assert trail_classes == ["BPF", "Dedup", "ACL", "Monitor", "IPv4Fwd"]

    def test_nsh_stripped_at_egress(self, profiles):
        topology = topology_for("paper-testbed").build()
        meta = MetaCompiler(topology=topology, profiles=profiles)
        placement, artifacts = meta.compile_spec(
            "chain t: ACL -> Encrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(1), t_max=gbps(30))],
        )
        rack = DeployedRack(topology, artifacts, profiles)
        cp = placement.chains[0]
        from repro.sim.runtime import _chain_packet
        out = rack.run(cp, [_chain_packet(cp.chain, 1)]).outputs[0]
        assert out is not None
        assert out.nsh is None  # no NSH leaks out of the ISP


class TestCrossComponentInvariants:
    def test_rates_never_exceed_estimates(self, profiles):
        for delta in (0.5, 1.0):
            chains = chains_with_delta([1, 2, 3], delta=delta)
            placement = Placer(profiles=profiles).solve(
                PlacementRequest(chains=chains)
            ).placement
            assert placement.feasible
            for cp in placement.chains:
                assert placement.rates[cp.name] <= cp.estimated_rate + 1e-6

    def test_nic_capacity_respected_by_rates(self, profiles):
        chains = chains_with_delta([1, 2, 3], delta=1.0)
        placer = Placer(profiles=profiles)
        placement = placer.solve(PlacementRequest(chains=chains)).placement
        load = sum(
            cp.server_visits.get("server0", 0.0) * placement.rates[cp.name]
            for cp in placement.chains
        )
        assert load <= gbps(40) + 1e-6

    def test_switch_stage_budget_respected(self, profiles):
        chains = chains_with_delta([1, 2, 3, 4], delta=0.5)
        placement = Placer(profiles=profiles).solve(
            PlacementRequest(chains=chains)
        ).placement
        assert placement.feasible
        assert placement.switch_stages_used is not None
        assert placement.switch_stages_used <= 12

    def test_stateful_flows_not_split_across_instances(self, profiles):
        """A replicated subgroup must keep each flow on one instance."""
        topology = topology_for("paper-testbed").build()
        meta = MetaCompiler(topology=topology, profiles=profiles)
        placement, artifacts = meta.compile_spec(
            "chain t: ACL -> Encrypt -> IPv4Fwd",
            slos=[SLO(t_min=gbps(6), t_max=gbps(30))],
        )
        (sg,) = placement.chains[0].subgroups
        assert sg.cores >= 2  # replicated
        rack = DeployedRack(topology, artifacts, profiles)
        cp = placement.chains[0]
        from repro.net.packet import Packet
        hits = set()
        for _ in range(4):
            pkt = Packet.build(src_ip="10.5.5.5", dst_ip="10.0.0.1",
                               src_port=4242, payload=b"flowdata")
            out = rack.run(cp, [pkt]).outputs[0]
            assert out is not None
            encrypt_module = next(
                name for name in out.metadata.processed_by
                if "_i" in name
            )
            hits.add(encrypt_module)
        assert len(hits) == 1


class TestMeasurementShape:
    def test_aggregate_close_to_lp_rates(self, profiles):
        chains = chains_with_delta([2, 3], delta=1.0)
        placer = Placer(profiles=profiles)
        placement = placer.solve(PlacementRequest(chains=chains)).placement
        sim = TestbedSimulator(topology=placer.topology, profiles=profiles)
        report = sim.run(placement)
        assert report.aggregate_throughput_mbps == pytest.approx(
            placement.aggregate_rate, rel=0.2
        )
        assert report.all_slos_met


def test_cold_deploy_walks_each_chain_graph_once(monkeypatch, profiles):
    """Parse → place → compile → deploy of the four Table-2 chains sorts
    each chain graph once and encodes its public state once (and its
    body, the P4 template key, at most once): every other structural
    question is answered from the graph's index and every later key from
    its digest memos. Rescanning edge lists costs a cold deploy ~110
    topological sorts."""
    from repro.chain import digest, graph
    from repro.p4c.compiler import clear_compile_memo

    indexed, encoded, bodies = [], [], []
    build_index = graph._Index.__init__
    encode_graph = digest._encode_graph
    encode_body = digest._encode_body

    def counting_index(self, of):
        indexed.append(of)
        build_index(self, of)

    def counting_encode(of, out):
        encoded.append(of)
        encode_graph(of, out)

    def counting_body(of, out):
        bodies.append(of)
        encode_body(of, out)

    monkeypatch.setattr(graph._Index, "__init__", counting_index)
    monkeypatch.setattr(digest, "_encode_graph", counting_encode)
    monkeypatch.setattr(digest, "_encode_body", counting_body)
    clear_compile_memo()

    chains = chains_with_delta([1, 2, 3, 4], delta=0.5)
    topology = topology_for("paper-testbed").build()
    placement = Placer(topology=topology, profiles=profiles).solve(
        PlacementRequest(chains=chains)
    ).placement
    assert placement.feasible
    artifacts = MetaCompiler(
        topology=topology, profiles=profiles
    ).compile_placement(placement)
    DeployedRack(topology, artifacts, profiles)

    graphs = {id(c.graph) for c in chains}
    assert {id(g) for g in indexed} >= graphs
    assert {id(g) for g in encoded} >= graphs
    # lists keep every graph alive, so ids are not reused
    assert max(Counter(map(id, indexed)).values()) == 1
    assert max(Counter(map(id, encoded)).values()) == 1
    assert max(Counter(map(id, bodies)).values(), default=0) == 1
