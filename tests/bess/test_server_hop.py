"""A server hop (``ServerHop``) is ``Pipeline.push_batch`` on the same graph.

``ServerHop.run`` visits only a server's subgroup NF modules and applies
the framework modules (PortInc, NSHdecap, SubgroupDemux, SIUpdate,
NSHencap, PortOut) as metadata writes and counter arithmetic, moving no
NSH bytes. The reference is the generic walk over the graph
``build_bess_pipeline`` makes: tag each packet with NSH, ``push_batch``,
drain ``PortOut``, match outputs to inputs by seq, strip the egress tag.
Two graphs built alike, one per side, must agree batch after batch on
every input's bytes and metadata, every output, and every module's
counters and RNG stream.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bess.pipeline import ServerHop, build_bess_pipeline
from repro.metacompiler.bessgen import (
    BessScriptIR,
    NFModuleSpec,
    SubgroupPipelineIR,
)
from repro.metacompiler.routing import DemuxEntry
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles

_ACL_DROP = {"rules": [{"src_ip": "10.1.0.0/30", "drop": True}]}


def _entry(spi, si, next_spi, next_si):
    return DemuxEntry(spi=spi, si=si, chain_name=f"c{spi}", node_ids=(),
                      next_spi=next_spi, next_si=next_si)


#: a replicated subgroup (three instances behind the demux's flow hash)
#: with an ACL that drops; a subgroup shared by two service paths whose
#: Limiter drops once its small bucket is spent; a one-module subgroup
IR = BessScriptIR(server="server0", subgroups=[
    SubgroupPipelineIR(
        sg_id="a/0", chain_name="c1", instances=3,
        modules=[NFModuleSpec("enc", "Encrypt"),
                 NFModuleSpec("acl", "ACL", _ACL_DROP),
                 NFModuleSpec("mon", "Monitor")],
        entries=[_entry(1, 255, 1, 254)],
    ),
    SubgroupPipelineIR(
        sg_id="b/0", chain_name="c2", instances=1,
        modules=[NFModuleSpec("bpf", "BPF"),
                 NFModuleSpec("lim", "Limiter", {"burst_bytes": 3000}),
                 NFModuleSpec("dedup", "Dedup")],
        entries=[_entry(2, 255, 2, 254), _entry(3, 250, 3, 249)],
    ),
    SubgroupPipelineIR(
        sg_id="c/0", chain_name="c4", instances=1,
        modules=[NFModuleSpec("fwd", "Tunnel")],
        entries=[_entry(4, 253, 5, 255)],
    ),
])

#: entry coordinates a batch draws from: every registered one, the shared
#: subgroup's second path (its SIUpdate entry is removed below: a next_map
#: miss), and two nobody registered
COORDS = [(1, 255), (2, 255), (3, 250), (4, 253), (1, 254), (9, 9)]


def _build():
    pipeline, port_inc, port_out, _sched = build_bess_pipeline(
        IR, default_profiles(), seed=5)
    for module in pipeline.modules.values():
        next_map = module.params.get("next_map")
        if next_map is not None:
            next_map.pop((3, 250), None)
    return pipeline, port_inc, port_out


def _reference(pipeline, port_inc, port_out, packets):
    for packet in packets:
        packet.push_nsh(packet.metadata.spi, packet.metadata.si)
    # PortInc drops what arrives flagged, before NSHdecap strips its tag
    flagged = [packet for packet in packets if packet.metadata.drop_flag]
    pipeline.push_batch(packets, entry=port_inc.name)
    by_seq = {out.metadata.seq: out for out in port_out.drain()}
    outs = [by_seq.pop(packet.metadata.seq, None) for packet in packets]
    assert not by_seq
    for packet in flagged + [out for out in outs if out is not None]:
        assert packet.pop_nsh() is not None
    return outs


def _packet(seq, coords, flow, flagged):
    packet = Packet.build(src_ip=f"10.1.0.{flow % 8}", src_port=1000 + flow,
                          payload=b"abcdefgh" * (8 + flow % 3))
    meta = packet.metadata
    meta.seq = seq
    meta.spi, meta.si = coords
    meta.drop_flag = flagged
    return packet


def _state(pipeline):
    return [(name, module.rx_packets, module.tx_packets,
             module.dropped_packets, module.cycles_charged,
             module._rng.getstate())
            for name, module in pipeline.modules.items()]


def _seen(packet):
    if packet is None:
        return None
    return packet.data, packet.metadata


_BATCH = st.lists(
    st.tuples(st.sampled_from(COORDS), st.integers(0, 15),
              st.integers(0, 7).map(lambda k: k == 0)),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_BATCH, min_size=1, max_size=4))
def test_server_hop_is_push_batch(batches):
    reference = _build()
    fused_pipeline = _build()[0]
    hop = ServerHop(fused_pipeline)
    seq = 0
    for batch in batches:
        want_in = [_packet(seq + i, *drawn) for i, drawn in enumerate(batch)]
        got_in = [packet.copy() for packet in want_in]
        seq += len(batch)
        want = _reference(*reference, want_in)
        got = hop.run(got_in)
        assert [_seen(p) for p in got] == [_seen(p) for p in want]
        assert [_seen(p) for p in got_in] == [_seen(p) for p in want_in]
        assert _state(fused_pipeline) == _state(reference[0])
        assert reference[2].emitted == []
        assert hop.port_out.emitted == []
