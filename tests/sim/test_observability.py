"""Dataplane observability: per-device cycle attribution, per-hop latency
breakdown, classification indexing, and rack counters."""

import pytest

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.placer import Placer, PlacementRequest
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import gbps


@pytest.fixture()
def profiles():
    return default_profiles()


def deploy(spec, profiles, topology=None, slos=None):
    topology = topology or topology_for("paper-testbed").build()
    chains = chains_from_spec(
        spec, slos=slos or [SLO(t_min=gbps(1), t_max=gbps(20))]
    )
    placer = Placer(topology=topology, profiles=profiles)
    placement = placer.solve(PlacementRequest(chains=chains)).placement
    assert placement.feasible
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    registry = MetricsRegistry()
    rack = DeployedRack(topology, artifacts, profiles, registry=registry)
    return rack, placement, registry


def heterogeneous_nic_testbed(server_freq_hz=2.0e9):
    """SmartNIC testbed with the server clocked unlike both the paper's
    1.7 GHz reference and the NIC's 1.2 GHz."""
    topology = topology_for("paper-smartnic").build()
    for socket in topology.servers[0].sockets:
        socket.freq_hz = server_freq_hz
    return topology


class TestPerDeviceLatencyAttribution:
    """The ISSUE's acceptance test: the exec component of ``latency_us``
    must equal Σ over devices of cycles-on-device ÷ that device's own
    ``freq_hz`` — not the total converted with ``servers[0].freq_hz``."""

    def _mixed_hop_packet(self, profiles):
        topology = heterogeneous_nic_testbed()
        rack, placement, _registry = deploy(
            "chain c: Dedup -> FastEncrypt -> IPv4Fwd", profiles,
            topology=topology,
        )
        cp = placement.chains[0]
        assignment_platforms = {
            a.platform for a in cp.assignment.values()
        }
        assert Platform.SMARTNIC in assignment_platforms
        assert Platform.SERVER in assignment_platforms
        out = rack.run(cp, [_chain_packet(cp.chain, 0)]).outputs[0]
        assert out is not None
        return rack, out

    def test_exec_us_sums_per_device_cycles_over_own_clock(self, profiles):
        rack, out = self._mixed_hop_packet(profiles)
        meta = out.metadata
        # both clock domains actually charged cycles
        assert meta.cycles_by_device["server0"] > 0
        assert meta.cycles_by_device["agilio0"] > 0
        expected = sum(
            cycles / rack.device_freq(device) * 1e6
            for device, cycles in meta.cycles_by_device.items()
        )
        assert meta.fields["exec_us"] == pytest.approx(expected)
        # every charged cycle is attributed to some device
        assert sum(meta.cycles_by_device.values()) == meta.cycles_consumed

    def test_single_clock_conversion_would_be_wrong(self, profiles):
        """Regression guard for the old bug: converting the *total* with
        the first server's clock misprices the SmartNIC's 1.2 GHz cycles
        when the server runs at a different frequency."""
        rack, out = self._mixed_hop_packet(profiles)
        meta = out.metadata
        single_clock = (
            meta.cycles_consumed / rack.topology.servers[0].freq_hz * 1e6
        )
        assert meta.fields["exec_us"] != pytest.approx(single_clock, rel=1e-3)

    def test_latency_is_sum_of_components(self, profiles):
        rack, out = self._mixed_hop_packet(profiles)
        fields = out.metadata.fields
        assert fields["latency_us"] == pytest.approx(
            fields["exec_us"] + fields["bounce_us"] + fields["switch_us"]
        )

    def test_hop_records_cover_all_cycles(self, profiles):
        rack, out = self._mixed_hop_packet(profiles)
        meta = out.metadata
        hops = meta.fields["hops"]
        assert sum(h["cycles"] for h in hops) == meta.cycles_consumed
        assert sum(h["exec_us"] for h in hops) == pytest.approx(
            meta.fields["exec_us"]
        )
        # switch hops run at line rate and charge nothing
        for hop in hops:
            if hop["platform"] == Platform.PISA.value:
                assert hop["cycles"] == 0


class TestClassifyIndex:
    def test_index_matches_linear_scan(self, profiles):
        """The dict index keyed by (chain, node-id route) must pick the
        same service path the old O(paths × packets) scan did."""
        rack, placement, _registry = deploy(
            "chain branchy: BPF -> "
            "[ACL -> Encrypt @ 0.5, default: Monitor] -> IPv4Fwd\n"
            "chain plain: ACL -> Encrypt -> IPv4Fwd",
            profiles,
            slos=[SLO(t_min=gbps(1), t_max=gbps(20)),
                  SLO(t_min=gbps(1), t_max=gbps(20))],
        )
        checked = 0
        for cp in placement.chains:
            for index in range(16):
                packet = _chain_packet(cp.chain, index)
                path = rack.classify(cp, packet)
                matches = [
                    p for p in rack.artifacts.routing.service_paths
                    if p.chain_name == cp.name
                    and tuple(p.node_ids) == tuple(path.node_ids)
                ]
                assert matches == [path]
                checked += 1
        assert checked == 32

    def test_branch_arms_reach_distinct_paths(self, profiles):
        rack, placement, _registry = deploy(
            "chain branchy: BPF -> "
            "[ACL -> Encrypt @ 0.5, default: Monitor] -> IPv4Fwd",
            profiles,
        )
        cp = placement.chains[0]
        spis = {
            rack.classify(cp, _chain_packet(cp.chain, index)).spi
            for index in range(32)
        }
        assert len(spis) == 2


class TestRackCounters:
    def test_injected_splits_into_delivered_and_dropped(self, profiles):
        rack, placement, registry = deploy(
            "chain c: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        traces = rack.trace_chains(placement, packets_per_chain=8)
        injected = registry.counter_value("rack.packets.injected", chain="c")
        delivered = registry.counter_value("rack.packets.delivered", chain="c")
        assert injected == 8
        assert delivered == traces["c"].delivered
        dropped = sum(
            c.value for c in registry.counters()
            if c.name == "rack.packets.dropped"
        )
        assert delivered + dropped == injected

    def test_device_cycle_counter_matches_nic_bookkeeping(self, profiles):
        topology = topology_for("paper-smartnic").build()
        rack, placement, registry = deploy(
            "chain c: BPF -> FastEncrypt -> IPv4Fwd", profiles,
            topology=topology, slos=[SLO(t_min=gbps(1), t_max=gbps(39))],
        )
        rack.trace_chains(placement, packets_per_chain=8)
        nic_cycles = registry.counter_value(
            "rack.device.cycles", device="agilio0"
        )
        assert nic_cycles > 0
        assert nic_cycles == rack.nics["agilio0"].cycles_charged

    def test_latency_histogram_and_trace_agree(self, profiles):
        rack, placement, registry = deploy(
            "chain c: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        traces = rack.trace_chains(placement, packets_per_chain=8)
        hist = registry.histogram("rack.latency_us", chain="c")
        assert hist.count == traces["c"].delivered
        assert hist.mean == pytest.approx(traces["c"].avg_latency_us)

    def test_device_stats_reports_registry_counters(self, profiles):
        rack, placement, _registry = deploy(
            "chain c: ACL -> Encrypt -> IPv4Fwd", profiles
        )
        rack.trace_chains(placement, packets_per_chain=4)
        stats = rack.device_stats()
        assert stats["server0"]["packets_in"] == 4
        assert stats["server0"]["packets_out"] == 4
        assert stats["server0"]["cycles"] > 0
        assert "modules" in stats["server0"]
        assert stats["tofino0"]["packets_in"] > 0


class TestTraceBreakdown:
    def test_trace_reports_breakdown_and_hops(self, profiles):
        topology = heterogeneous_nic_testbed()
        rack, placement, _registry = deploy(
            "chain c: Dedup -> FastEncrypt -> IPv4Fwd", profiles,
            topology=topology,
        )
        traces = rack.trace_chains(placement, packets_per_chain=8)
        trace = traces["c"]
        assert trace.delivered == 8
        assert trace.avg_latency_us == pytest.approx(
            sum(trace.latency_breakdown.values())
        )
        assert trace.latency_breakdown["bounce_us"] > 0
        devices = {hop.device for hop in trace.hops}
        assert {"server0", "agilio0"} <= devices
        nic_hops = [h for h in trace.hops if h.device == "agilio0"]
        assert all(h.avg_exec_us > 0 for h in nic_hops)
