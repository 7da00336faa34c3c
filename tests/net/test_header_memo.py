"""Memoized header encoders and the in-place ``Packet.commit``.

``pack()`` of Ethernet, VLAN, IPv4 (checksum included), TCP and UDP comes
from a bounded memo keyed by the header's field values, and ``commit``
overwrites only the header region. The encoders below are the previous
uncached codecs, kept verbatim as the oracle; ``_full_commit`` is the
previous ``commit``, which re-serialized every header and re-appended the
payload.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import headers
from repro.net.headers import (
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    IPv4Header,
    NSHHeader,
    TCPHeader,
    UDPHeader,
    VLANHeader,
    int_to_ip,
    ip_to_int,
    ipv4_checksum,
    mac_to_bytes,
)
from repro.net.packet import Packet

# -- the oracle: the uncached codecs, verbatim -------------------------------


def _eth(h):
    return mac_to_bytes(h.dst) + mac_to_bytes(h.src) + struct.pack(
        "!H", h.ethertype
    )


def _vlan(h):
    if not 0 <= h.vid < 4096:
        raise ValueError(f"VLAN vid must fit 12 bits, got {h.vid}")
    tci = ((h.pcp & 0x7) << 13) | ((h.dei & 0x1) << 12) | (h.vid & 0xFFF)
    return struct.pack("!HH", tci, h.ethertype)


def _ipv4(h):
    header = struct.pack(
        "!BBHHHBBH4s4s",
        (4 << 4) | 5,
        h.dscp << 2,
        h.total_length,
        h.identification,
        0,
        h.ttl,
        h.proto,
        0,
        struct.pack("!I", ip_to_int(h.src)),
        struct.pack("!I", ip_to_int(h.dst)),
    )
    checksum = ipv4_checksum(header)
    return header[:10] + struct.pack("!H", checksum) + header[12:]


def _tcp(h):
    return struct.pack("!HHIIBBHHH", h.src_port, h.dst_port, h.seq, h.ack,
                       5 << 4, h.flags, h.window, 0, 0)


def _udp(h):
    return struct.pack("!HHHH", h.src_port, h.dst_port, h.length, 0)


_ORACLE = {EthernetHeader: _eth, VLANHeader: _vlan, IPv4Header: _ipv4,
           TCPHeader: _tcp, UDPHeader: _udp, NSHHeader: NSHHeader.pack}


def _full_commit(packet: Packet) -> bytes:
    parsed = packet._parse()
    pieces = []
    for slot in ("nsh", "eth", "vlan", "ipv4", "tcp", "udp"):
        header = parsed[slot]
        if header is not None:
            pieces.append(_ORACLE[type(header)](header))
    return b"".join(pieces) + bytes(packet._data[parsed["payload_offset"]:])


# -- strategies --------------------------------------------------------------

ips = st.integers(0, 0xFFFFFFFF).map(int_to_ip)
ports = st.integers(0, 0xFFFF)
macs = st.binary(min_size=6, max_size=6).map(lambda raw: raw.hex(":"))
u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)

header_values = st.one_of(
    st.builds(EthernetHeader, dst=macs, src=macs, ethertype=u16),
    st.builds(VLANHeader, pcp=st.integers(0, 7), dei=st.integers(0, 1),
              vid=st.integers(0, 4095), ethertype=u16),
    st.builds(IPv4Header, src=ips, dst=ips, proto=u8, ttl=u8,
              total_length=u16, identification=u16,
              dscp=st.integers(0, 63)),
    st.builds(TCPHeader, src_port=ports, dst_port=ports, seq=u32, ack=u32,
              flags=u8, window=u16),
    st.builds(UDPHeader, src_port=ports, dst_port=ports, length=u16),
)


@settings(max_examples=300)
@given(header=header_values, cold=st.booleans())
def test_memoized_pack_equals_the_uncached_codec(header, cold):
    if cold:
        for memo in (headers._eth_pack_memo, headers._vlan_pack_memo,
                     headers._ipv4_pack_memo, headers._tcp_pack_memo,
                     headers._udp_pack_memo):
            memo.clear()
    want = _ORACLE[type(header)](header)
    assert header.pack() == want
    assert header.pack() == want  # now from the memo


def test_a_changed_field_is_a_new_key():
    header = IPv4Header(src="10.0.0.1", dst="10.0.0.2")
    before = header.pack()
    header.ttl -= 1
    assert header.pack() == _ipv4(header) != before
    header.ttl += 1
    assert header.pack() == before


def test_a_refused_value_is_refused_every_time():
    with pytest.raises(ValueError):
        VLANHeader(vid=4096).pack()
    with pytest.raises(ValueError):
        VLANHeader(vid=4096).pack()


def test_the_pack_memos_are_bounded(monkeypatch):
    monkeypatch.setattr(headers, "_PACK_MEMO_MAX", 8)
    headers._udp_pack_memo.clear()
    for port in range(40):
        assert UDPHeader(src_port=port).pack() == _udp(UDPHeader(src_port=port))
        assert len(headers._udp_pack_memo) <= 8


@settings(max_examples=200)
@given(
    proto=st.sampled_from([PROTO_TCP, PROTO_UDP, 1]),
    vlan=st.one_of(st.none(), st.integers(0, 4095)),
    nsh=st.one_of(st.none(), st.tuples(st.integers(0, (1 << 24) - 1), u8)),
    payload=st.binary(max_size=96),
    src=ips, dst=ips, sport=ports, dport=ports, ttl=u8, mac=macs,
    new_vid=st.integers(0, 4095),
)
def test_in_place_commit_equals_full_reserialisation(
        proto, vlan, nsh, payload, src, dst, sport, dport, ttl, mac,
        new_vid):
    """Random stacks — NSH, VLAN, TCP and UDP each present or absent —
    with every present header edited: the bytes equal the full rewrite,
    and the parse cache still describes them."""
    packet = Packet.build(proto=proto, vlan=vlan, payload=payload)
    if nsh is not None:
        packet.push_nsh(*nsh)
    packet.eth.dst = mac
    if packet.vlan is not None:
        packet.vlan.vid = new_vid
    packet.ipv4.src, packet.ipv4.dst, packet.ipv4.ttl = src, dst, ttl
    l4 = packet.tcp or packet.udp
    if l4 is not None:
        l4.src_port, l4.dst_port = sport, dport
    want = _full_commit(packet)
    packet.commit()
    assert packet.data == want
    reparsed = Packet(want)
    for slot in ("eth", "vlan", "ipv4", "tcp", "udp"):
        assert getattr(packet, slot) == getattr(reparsed, slot)
    assert packet.payload == reparsed.payload
    assert packet.flow_key_bytes() == reparsed.flow_key_bytes()
