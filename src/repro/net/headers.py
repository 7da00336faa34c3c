"""Byte-accurate header codecs for the simulated dataplanes.

Implements the headers Lemur's platforms must agree on: Ethernet, 802.1Q VLAN,
IPv4, TCP, UDP, and the Network Service Header (NSH, RFC 8300) that Lemur uses
to stitch cross-platform NF chains (§4.1). Each header is a frozen-ish
dataclass with ``pack()``/``unpack()`` methods over ``bytes``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_NSH = 0x894F

PROTO_TCP = 6
PROTO_UDP = 17

#: NSH "next protocol" value for Ethernet payloads (RFC 8300 §3.2).
NSH_NEXT_PROTO_ETHERNET = 0x3
NSH_NEXT_PROTO_IPV4 = 0x1


#: Conversion memos — dataplanes see a bounded address set (flows, routes,
#: NAT/LB pools), so both directions cache to a cap and reset when full.
_ADDR_MEMO_MAX = 8192
_ip_int_memo: dict = {}
_int_ip_memo: dict = {}


def ip_to_int(addr: str) -> int:
    """Dotted-quad IPv4 address to a 32-bit integer.

    >>> hex(ip_to_int("10.0.0.1"))
    '0xa000001'
    """
    value = _ip_int_memo.get(addr)
    if value is not None:
        return value
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"not an IPv4 address: {addr!r}")
        value = (value << 8) | octet
    if len(_ip_int_memo) >= _ADDR_MEMO_MAX:
        _ip_int_memo.clear()
    _ip_int_memo[addr] = value
    return value


def int_to_ip(value: int) -> str:
    """32-bit integer to dotted-quad IPv4 address."""
    addr = _int_ip_memo.get(value)
    if addr is not None:
        return addr
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"not a 32-bit value: {value}")
    addr = (
        f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}"
        f".{(value >> 8) & 0xFF}.{value & 0xFF}"
    )
    if len(_int_ip_memo) >= _ADDR_MEMO_MAX:
        _int_ip_memo.clear()
    _int_ip_memo[value] = addr
    return addr


_mac_memo: dict = {}


def mac_to_bytes(mac: str) -> bytes:
    """``aa:bb:cc:dd:ee:ff`` to 6 raw bytes."""
    raw = _mac_memo.get(mac)
    if raw is not None:
        return raw
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"not a MAC address: {mac!r}")
    raw = bytes(int(p, 16) for p in parts)
    if len(_mac_memo) >= _ADDR_MEMO_MAX:
        _mac_memo.clear()
    _mac_memo[mac] = raw
    return raw


_mac_str_memo: dict = {}


def bytes_to_mac(raw: bytes) -> str:
    """6 raw bytes to ``aa:bb:cc:dd:ee:ff``."""
    mac = _mac_str_memo.get(raw)
    if mac is not None:
        return mac
    if len(raw) != 6:
        raise ValueError(f"MAC must be 6 bytes, got {len(raw)}")
    mac = raw.hex(":")
    if len(_mac_str_memo) >= _ADDR_MEMO_MAX:
        _mac_str_memo.clear()
    _mac_str_memo[bytes(raw)] = mac
    return mac


#: ``pack()`` memos, one per header type, keyed by the tuple of field
#: values. A rewrite NF sets the same few values per flow, so the encoding
#: (and the IPv4 checksum) is computed once per distinct header; capped
#: and reset when full like the address memos. Only successful encodings
#: are kept, so a value ``pack()`` refuses is refused every time.
_PACK_MEMO_MAX = 8192
_eth_pack_memo: dict = {}
_vlan_pack_memo: dict = {}
_ipv4_pack_memo: dict = {}
_tcp_pack_memo: dict = {}
_udp_pack_memo: dict = {}


def _remember(memo: dict, key: tuple, raw: bytes) -> bytes:
    if len(memo) >= _PACK_MEMO_MAX:
        memo.clear()
    memo[key] = raw
    return raw


@dataclass
class EthernetHeader:
    """14-byte Ethernet II header."""

    dst: str = "ff:ff:ff:ff:ff:ff"
    src: str = "00:00:00:00:00:00"
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def pack(self) -> bytes:
        key = (self.dst, self.src, self.ethertype)
        raw = _eth_pack_memo.get(key)
        if raw is None:
            raw = _remember(_eth_pack_memo, key, mac_to_bytes(self.dst)
                            + mac_to_bytes(self.src)
                            + struct.pack("!H", self.ethertype))
        return raw

    @classmethod
    def unpack(cls, raw: bytes) -> "EthernetHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated Ethernet header")
        (ethertype,) = struct.unpack("!H", raw[12:14])
        return cls(
            dst=bytes_to_mac(raw[0:6]),
            src=bytes_to_mac(raw[6:12]),
            ethertype=ethertype,
        )


@dataclass
class VLANHeader:
    """4-byte 802.1Q tag. Lemur's OpenFlow backend packs SPI/SI into ``vid``
    (12 bits) because OF switches do not support NSH (§5.3)."""

    pcp: int = 0
    dei: int = 0
    vid: int = 0
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 4

    def pack(self) -> bytes:
        key = (self.pcp, self.dei, self.vid, self.ethertype)
        raw = _vlan_pack_memo.get(key)
        if raw is not None:
            return raw
        if not 0 <= self.vid < 4096:
            raise ValueError(f"VLAN vid must fit 12 bits, got {self.vid}")
        tci = ((self.pcp & 0x7) << 13) | ((self.dei & 0x1) << 12) | (self.vid & 0xFFF)
        return _remember(_vlan_pack_memo, key,
                         struct.pack("!HH", tci, self.ethertype))

    @classmethod
    def unpack(cls, raw: bytes) -> "VLANHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated VLAN header")
        tci, ethertype = struct.unpack("!HH", raw[:4])
        return cls(
            pcp=(tci >> 13) & 0x7,
            dei=(tci >> 12) & 0x1,
            vid=tci & 0xFFF,
            ethertype=ethertype,
        )


@dataclass
class IPv4Header:
    """20-byte IPv4 header (no options) with checksum support."""

    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    proto: int = PROTO_UDP
    ttl: int = 64
    total_length: int = 20
    identification: int = 0
    dscp: int = 0

    LENGTH = 20

    def pack(self) -> bytes:
        key = (self.src, self.dst, self.proto, self.ttl, self.total_length,
               self.identification, self.dscp)
        raw = _ipv4_pack_memo.get(key)
        if raw is not None:
            return raw
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version=4, ihl=5
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.proto,
            0,  # checksum placeholder
            struct.pack("!I", ip_to_int(self.src)),
            struct.pack("!I", ip_to_int(self.dst)),
        )
        checksum = ipv4_checksum(header)
        return _remember(_ipv4_pack_memo, key, header[:10]
                         + struct.pack("!H", checksum) + header[12:])

    @classmethod
    def unpack(cls, raw: bytes) -> "IPv4Header":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated IPv4 header")
        (
            ver_ihl,
            dscp_ecn,
            total_length,
            identification,
            _flags,
            ttl,
            proto,
            _checksum,
            src_raw,
            dst_raw,
        ) = struct.unpack("!BBHHHBBH4s4s", raw[:20])
        if ver_ihl >> 4 != 4:
            raise ValueError(f"not IPv4: version={ver_ihl >> 4}")
        return cls(
            src=int_to_ip(struct.unpack("!I", src_raw)[0]),
            dst=int_to_ip(struct.unpack("!I", dst_raw)[0]),
            proto=proto,
            ttl=ttl,
            total_length=total_length,
            identification=identification,
            dscp=dscp_ecn >> 2,
        )


def ipv4_checksum(header: bytes) -> int:
    """Standard 16-bit ones-complement checksum over an IPv4 header."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class TCPHeader:
    """20-byte TCP header (no options)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    LENGTH = 20

    def pack(self) -> bytes:
        key = (self.src_port, self.dst_port, self.seq, self.ack, self.flags,
               self.window)
        raw = _tcp_pack_memo.get(key)
        if raw is None:
            raw = _remember(_tcp_pack_memo, key, struct.pack(
                "!HHIIBBHHH",
                self.src_port,
                self.dst_port,
                self.seq,
                self.ack,
                5 << 4,  # data offset
                self.flags,
                self.window,
                0,  # checksum (not validated by the simulators)
                0,  # urgent pointer
            ))
        return raw

    @classmethod
    def unpack(cls, raw: bytes) -> "TCPHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated TCP header")
        src_port, dst_port, seq, ack, _off, flags, window, _csum, _urg = struct.unpack(
            "!HHIIBBHHH", raw[:20]
        )
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
        )


@dataclass
class UDPHeader:
    """8-byte UDP header."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 8

    LENGTH = 8

    def pack(self) -> bytes:
        key = (self.src_port, self.dst_port, self.length)
        raw = _udp_pack_memo.get(key)
        if raw is None:
            raw = _remember(_udp_pack_memo, key, struct.pack(
                "!HHHH", self.src_port, self.dst_port, self.length, 0))
        return raw

    @classmethod
    def unpack(cls, raw: bytes) -> "UDPHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated UDP header")
        src_port, dst_port, length, _csum = struct.unpack("!HHHH", raw[:8])
        return cls(src_port=src_port, dst_port=dst_port, length=length)


@dataclass
class NSHHeader:
    """Network Service Header (RFC 8300), MD type 2 with no context headers.

    Lemur tags packets with a service path index (SPI, 24 bits) identifying a
    linear NF chain and a service index (SI, 8 bits) sequencing NFs within the
    chain (§4.1). The base+service-path header is 8 bytes.
    """

    spi: int = 0
    si: int = 255
    next_proto: int = NSH_NEXT_PROTO_ETHERNET
    ttl: int = 63

    LENGTH = 8

    def pack(self) -> bytes:
        if not 0 <= self.spi < (1 << 24):
            raise ValueError(f"SPI must fit 24 bits, got {self.spi}")
        if not 0 <= self.si < 256:
            raise ValueError(f"SI must fit 8 bits, got {self.si}")
        # ver(2)=0 O(1)=0 U(1)=0 TTL(6) Length(6)=2 U(4) MDtype(4)=2 NextProto(8)
        first = (0 << 30) | ((self.ttl & 0x3F) << 22) | (2 << 16) | (2 << 8) | (
            self.next_proto & 0xFF
        )
        return struct.pack("!II", first, (self.spi << 8) | self.si)

    @classmethod
    def unpack(cls, raw: bytes) -> "NSHHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated NSH header")
        first, sp = struct.unpack("!II", raw[:8])
        return cls(
            spi=sp >> 8,
            si=sp & 0xFF,
            next_proto=first & 0xFF,
            ttl=(first >> 22) & 0x3F,
        )


#: Pre-computed first word of the 8-byte NSH header produced by
#: ``NSHHeader(ttl=63, next_proto=Ethernet).pack()`` — the only variant the
#: simulated platforms emit on the hot path.
_NSH_FIRST_WORD = (63 << 22) | (2 << 16) | (2 << 8) | NSH_NEXT_PROTO_ETHERNET
_NSH_STRUCT = struct.Struct("!II")


def pack_nsh(spi: int, si: int) -> bytes:
    """Fast path for ``NSHHeader(spi=spi, si=si).pack()`` (default TTL/proto).

    Byte-identical to the dataclass encoder; used by the per-hop encap path
    where constructing an :class:`NSHHeader` per packet is measurable.
    """
    if not 0 <= spi < (1 << 24):
        raise ValueError(f"SPI must fit 24 bits, got {spi}")
    if not 0 <= si < 256:
        raise ValueError(f"SI must fit 8 bits, got {si}")
    return _NSH_STRUCT.pack(_NSH_FIRST_WORD, (spi << 8) | si)
