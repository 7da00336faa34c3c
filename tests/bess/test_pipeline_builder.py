"""Direct tests of the generated-IR → executable-pipeline builder."""

import pytest

from repro.bess.pipeline import build_bess_pipeline
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.metacompiler.compiler import MetaCompiler
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles
from repro.units import gbps


@pytest.fixture()
def built():
    profiles = default_profiles()
    topology = topology_for("paper-testbed").build()
    chains = chains_from_spec(
        "chain a: ACL -> Encrypt -> IPv4Fwd",
        slos=[SLO(t_min=gbps(5), t_max=gbps(30))],  # forces replication
    )
    placement = heuristic_place(chains, topology, profiles)
    meta = MetaCompiler(topology=topology, profiles=profiles)
    artifacts = meta.compile_placement(placement)
    ir = artifacts.bess["server0"]
    pipeline, port_inc, port_out, scheduler = build_bess_pipeline(
        ir, profiles
    )
    return ir, pipeline, port_inc, port_out, scheduler, artifacts


class TestBuilder:
    def test_shared_modules_present(self, built):
        _ir, pipeline, *_rest = built
        for name in ("port_inc", "nsh_decap", "demux", "nsh_encap",
                     "port_out"):
            assert name in pipeline.modules

    def test_one_module_chain_per_instance(self, built):
        ir, pipeline, *_rest = built
        (sg,) = ir.subgroups
        for instance in range(sg.instances):
            for spec in sg.modules:
                assert f"{spec.module_name}_i{instance}" in pipeline.modules

    def test_scheduler_has_one_leaf_per_instance(self, built):
        ir, _p, _pi, _po, scheduler, _a = built
        (sg,) = ir.subgroups
        leaves = sum(
            len(core.root.children) for core in scheduler.cores.values()
        )
        assert leaves == sg.instances

    def test_correct_packet_flow(self, built):
        ir, pipeline, port_inc, port_out, _sched, artifacts = built
        (sg,) = ir.subgroups
        entry = sg.entries[0]
        pkt = Packet.build(dst_ip="10.0.0.1", payload=b"flow")
        pkt.push_nsh(entry.spi, entry.si)
        pipeline.push(pkt, entry=port_inc.name)
        (out,) = port_out.drain()
        assert out.nsh.spi == entry.next_spi
        assert out.nsh.si == entry.next_si
        assert out.payload != b"flow"  # Encrypt ran

    def test_unknown_spi_dropped_inside(self, built):
        _ir, pipeline, port_inc, port_out, *_ = built
        pkt = Packet.build()
        pkt.push_nsh(250, 9)  # registered nowhere
        pipeline.push(pkt, entry=port_inc.name)
        assert port_out.drain() == []

    def test_flow_affinity_across_instances(self, built):
        ir, pipeline, port_inc, port_out, *_ = built
        (sg,) = ir.subgroups
        assert sg.instances >= 2
        entry = sg.entries[0]
        seen_modules = set()
        for _ in range(3):
            pkt = Packet.build(src_ip="10.4.4.4", src_port=77,
                               payload=b"x")
            pkt.push_nsh(entry.spi, entry.si)
            pipeline.push(pkt, entry=port_inc.name)
            (out,) = port_out.drain()
            instance_modules = [
                name for name in out.metadata.processed_by if "_i" in name
            ]
            seen_modules.add(tuple(instance_modules))
        assert len(seen_modules) == 1


class TestSharedSubgroupFanIn:
    """A subgroup shared by several service paths is entered at one
    (spi, si) per path. Its instance head must get one demux gate, not one
    per (spi, si): ``push_batch`` walks a mixed batch gate-group by
    gate-group, so per-entry gates would hand the head each path's packets
    in turn instead of in arrival order."""

    @pytest.fixture()
    def table2_server(self):
        # Table-2 chains 1-4 at delta = 0.5 on the paper testbed: chain4's
        # first subgroup, Dedup -> ACL -> Monitor, serves its three SPIs
        profiles = default_profiles()
        topology = topology_for("paper-testbed").build()
        placement = heuristic_place(
            chains_with_delta([1, 2, 3, 4], 0.5), topology, profiles
        )
        artifacts = MetaCompiler(
            topology=topology, profiles=profiles
        ).compile_placement(placement)
        ir = artifacts.bess["server0"]
        (shared,) = [sg for sg in ir.subgroups if sg.sg_id == "chain4/sg0"]
        assert [m.nf_class for m in shared.modules] == [
            "Dedup", "ACL", "Monitor"
        ]
        assert len(shared.entries) == 3
        return profiles, ir, [(e.spi, e.si) for e in shared.entries]

    @staticmethod
    def _packets(coords):
        packets = []
        for i in range(90):
            # repeated 64-byte chunks: Dedup's rewrite depends on which
            # packet saw a chunk first
            pkt = Packet.build(src_ip=f"10.1.0.{i % 7 + 1}",
                               src_port=1024 + i % 11,
                               payload=bytes([i % 5]) * 128)
            pkt.metadata.seq = i
            pkt.push_nsh(*coords[i % len(coords)])
            packets.append(pkt)
        return packets

    def test_mixed_spi_batch_matches_serial_push(self, table2_server):
        profiles, ir, coords = table2_server
        serial_pipe, serial_in, serial_out, _ = build_bess_pipeline(
            ir, profiles, seed=23
        )
        serial = []
        for pkt in self._packets(coords):
            serial_pipe.push(pkt, entry=serial_in.name)
            serial.extend(serial_out.drain())

        batch_pipe, batch_in, batch_out, _ = build_bess_pipeline(
            ir, profiles, seed=23
        )
        batch_pipe.push_batch(self._packets(coords), entry=batch_in.name)
        # the stateless encap tail has fan-in: exit order is not input order
        batched = sorted(batch_out.drain(), key=lambda p: p.metadata.seq)

        def outcome(packets):
            return [(p.metadata.seq, p.data, p.metadata.cycles_consumed)
                    for p in packets]

        assert len(serial) == 90
        assert outcome(batched) == outcome(serial)
        assert batch_pipe.stats() == serial_pipe.stats()
        assert {
            name: module._rng.getstate()
            for name, module in batch_pipe.modules.items()
        } == {
            name: module._rng.getstate()
            for name, module in serial_pipe.modules.items()
        }

    def test_shared_subgroup_has_one_gate_per_instance(self, table2_server):
        profiles, ir, coords = table2_server
        pipeline, *_rest = build_bess_pipeline(ir, profiles)
        demux = pipeline.module("demux")
        assert len({demux._routes[coord] for coord in coords}) == 1
