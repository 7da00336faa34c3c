"""Packet representation used by every simulated dataplane.

A :class:`Packet` owns a mutable byte buffer plus the *per-packet metadata*
Lemur's generated code relies on: the NSH service path index / service index,
the drop flag standalone P4 NFs may set (§4.2), and branch decisions stored by
generated traffic-splitting tables (§A.2.2).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_NSH,
    ETHERTYPE_VLAN,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    IPv4Header,
    NSHHeader,
    TCPHeader,
    UDPHeader,
    VLANHeader,
    pack_nsh,
)


@dataclass
class PacketMetadata:
    """Mutable per-packet metadata shared between chained NFs.

    Mirrors the P4 metadata Lemur's meta-compiler injects: ``drop_flag`` lets a
    standalone NF stop the chain (firewalls), ``branch_decision`` records the
    traffic-splitting table's verdict at a branching node, and ``processed_by``
    is a debugging trail of NF instance names (not available on hardware, but
    invaluable for validating generated routing in tests).
    """

    drop_flag: bool = False
    branch_decision: Optional[int] = None
    #: Injection sequence number assigned by the rack; lets batched device
    #: runtimes map emitted packets back to the inputs they came from.
    seq: Optional[int] = None
    spi: Optional[int] = None
    si: Optional[int] = None
    ingress_port: Optional[int] = None
    egress_port: Optional[int] = None
    chain_id: Optional[str] = None
    timestamp_us: float = 0.0
    cycles_consumed: int = 0
    #: cycles attributed to the device that charged them (device name →
    #: cycles on *that device's* clock); the rack converts each entry with
    #: the owning device's frequency when stamping latency.
    cycles_by_device: dict = field(default_factory=dict)
    processed_by: list = field(default_factory=list)
    fields: dict = field(default_factory=dict)


#: Interned NSH header objects for the encap fast path. NSH headers are
#: read-only everywhere in the codebase (re-tagging always goes through
#: pop/push), so one shared instance per (SPI, SI) is safe.
_NSH_INTERN_MAX = 4096
_nsh_intern: dict = {}


def _interned_nsh(spi: int, si: int) -> NSHHeader:
    header = _nsh_intern.get((spi, si))
    if header is None:
        if len(_nsh_intern) >= _NSH_INTERN_MAX:
            _nsh_intern.clear()
        header = _nsh_intern[(spi, si)] = NSHHeader(spi=spi, si=si)
    return header


#: Parse-cache slots whose header objects dataplane modules edit in place
#: before ``commit()`` (``nsh`` is absent: see ``_interned_nsh``).
_EDITABLE_HEADERS = ("eth", "vlan", "ipv4", "tcp", "udp")


def _fresh(header):
    """A field-for-field copy of one header object (all fields scalar)."""
    clone = object.__new__(type(header))
    clone.__dict__.update(header.__dict__)
    return clone


class Packet:
    """A packet: raw bytes + parsed header cache + metadata.

    The header cache is invalidated on any byte mutation; dataplane modules
    mutate headers through the typed helpers (``eth``, ``ipv4``...) and call
    :meth:`commit` to re-serialize.
    """

    def __init__(self, data: bytes, metadata: Optional[PacketMetadata] = None):
        self._data = bytearray(data)
        self.metadata = metadata or PacketMetadata()
        self._parsed: Optional[dict] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        src_ip: str = "10.0.0.1",
        dst_ip: str = "10.0.0.2",
        src_port: int = 1234,
        dst_port: int = 80,
        proto: int = PROTO_UDP,
        payload: bytes = b"",
        vlan: Optional[int] = None,
        src_mac: str = "02:00:00:00:00:01",
        dst_mac: str = "02:00:00:00:00:02",
        total_bytes: Optional[int] = None,
    ) -> "Packet":
        """Assemble an Ethernet/IPv4/{TCP,UDP} packet.

        ``total_bytes`` pads the payload so the wire size matches a desired
        frame length (the perf simulator cares about packet size).
        """
        l4: bytes
        if proto == PROTO_TCP:
            l4 = TCPHeader(src_port=src_port, dst_port=dst_port).pack()
        elif proto == PROTO_UDP:
            l4 = UDPHeader(
                src_port=src_port, dst_port=dst_port, length=8 + len(payload)
            ).pack()
        else:
            l4 = b""
        eth_type = ETHERTYPE_VLAN if vlan is not None else ETHERTYPE_IPV4
        pieces = [EthernetHeader(dst=dst_mac, src=src_mac, ethertype=eth_type).pack()]
        if vlan is not None:
            pieces.append(VLANHeader(vid=vlan, ethertype=ETHERTYPE_IPV4).pack())
        ip_total = IPv4Header.LENGTH + len(l4) + len(payload)
        pieces.append(
            IPv4Header(src=src_ip, dst=dst_ip, proto=proto, total_length=ip_total).pack()
        )
        pieces.append(l4)
        pieces.append(payload)
        raw = b"".join(pieces)
        if total_bytes is not None and len(raw) < total_bytes:
            raw += b"\x00" * (total_bytes - len(raw))
        return cls(raw)

    # -- byte access ------------------------------------------------------

    @property
    def data(self) -> bytes:
        return bytes(self._data)

    @data.setter
    def data(self, value: bytes) -> None:
        self._data = bytearray(value)
        self._parsed = None

    def __len__(self) -> int:
        return len(self._data)

    # -- parsing ----------------------------------------------------------

    def _parse(self) -> dict:
        """Parse the header stack: [NSH] Ethernet [VLAN] IPv4 [TCP|UDP]."""
        if self._parsed is not None:
            return self._parsed
        parsed: dict[str, Any] = {
            "nsh": None,
            "eth": None,
            "vlan": None,
            "ipv4": None,
            "tcp": None,
            "udp": None,
            "payload_offset": 0,
        }
        raw = bytes(self._data)
        offset = 0
        # Lemur's NSH encap places NSH at the very front followed by the
        # original Ethernet frame (next_proto = Ethernet).
        if len(raw) >= NSHHeader.LENGTH + EthernetHeader.LENGTH and _looks_like_nsh(raw):
            inner_ethertype = (raw[20] << 8) | raw[21]
            if inner_ethertype in (ETHERTYPE_IPV4, ETHERTYPE_VLAN):
                parsed["nsh"] = NSHHeader.unpack(raw)
                offset = NSHHeader.LENGTH
        if len(raw) >= offset + EthernetHeader.LENGTH:
            eth = EthernetHeader.unpack(raw[offset:])
            parsed["eth"] = eth
            offset += EthernetHeader.LENGTH
            ethertype = eth.ethertype
            if ethertype == ETHERTYPE_VLAN and len(raw) >= offset + VLANHeader.LENGTH:
                vlan = VLANHeader.unpack(raw[offset:])
                parsed["vlan"] = vlan
                offset += VLANHeader.LENGTH
                ethertype = vlan.ethertype
            if ethertype == ETHERTYPE_IPV4 and len(raw) >= offset + IPv4Header.LENGTH:
                ipv4 = IPv4Header.unpack(raw[offset:])
                parsed["ipv4"] = ipv4
                offset += IPv4Header.LENGTH
                if ipv4.proto == PROTO_TCP and len(raw) >= offset + TCPHeader.LENGTH:
                    parsed["tcp"] = TCPHeader.unpack(raw[offset:])
                    offset += TCPHeader.LENGTH
                elif ipv4.proto == PROTO_UDP and len(raw) >= offset + UDPHeader.LENGTH:
                    parsed["udp"] = UDPHeader.unpack(raw[offset:])
                    offset += UDPHeader.LENGTH
        parsed["payload_offset"] = offset
        self._parsed = parsed
        return parsed

    # The hot accessors check ``_parsed`` directly instead of calling
    # ``_parse()`` — the extra call shows up at dataplane packet rates.

    @property
    def nsh(self) -> Optional[NSHHeader]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["nsh"]

    @property
    def eth(self) -> Optional[EthernetHeader]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["eth"]

    @property
    def vlan(self) -> Optional[VLANHeader]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["vlan"]

    @property
    def ipv4(self) -> Optional[IPv4Header]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["ipv4"]

    @property
    def tcp(self) -> Optional[TCPHeader]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["tcp"]

    @property
    def udp(self) -> Optional[UDPHeader]:
        parsed = self._parsed
        return (parsed if parsed is not None else self._parse())["udp"]

    @property
    def payload(self) -> bytes:
        parsed = self._parsed
        if parsed is None:
            parsed = self._parse()
        return bytes(self._data[parsed["payload_offset"]:])

    @payload.setter
    def payload(self, value: bytes) -> None:
        # headers and their offsets are untouched, so the parse cache
        # (including the flow key) stays valid
        parsed = self._parsed
        if parsed is None:
            parsed = self._parse()
        self._data[parsed["payload_offset"]:] = value

    def five_tuple(self):
        """(src_ip, dst_ip, src_port, dst_port, proto) or None if not IP."""
        parsed = self._parse()
        ipv4 = parsed["ipv4"]
        if ipv4 is None:
            return None
        l4 = parsed["tcp"] or parsed["udp"]
        src_port = l4.src_port if l4 else 0
        dst_port = l4.dst_port if l4 else 0
        return (ipv4.src, ipv4.dst, src_port, dst_port, ipv4.proto)

    def flow_key_bytes(self) -> Optional[bytes]:
        """The packet's flow identity as 13 packed bytes, or ``None`` if the
        packet carries no IPv4 header.

        Layout: src_ip(4) dst_ip(4) src_port(2) dst_port(2) proto(1), sliced
        straight out of the wire bytes — equivalent to (and collision-free
        with) :meth:`five_tuple`, but far cheaper to hash. Cached inside the
        parse cache so any byte mutation invalidates it automatically.
        """
        parsed = self._parsed
        if parsed is None:
            parsed = self._parse()
        key = parsed.get("flow_key", False)
        if key is not False:
            return key
        ipv4 = parsed["ipv4"]
        if ipv4 is None:
            parsed["flow_key"] = None
            return None
        if parsed["tcp"] is not None:
            l4_len = TCPHeader.LENGTH
        elif parsed["udp"] is not None:
            l4_len = UDPHeader.LENGTH
        else:
            l4_len = 0
        ip_off = parsed["payload_offset"] - l4_len - IPv4Header.LENGTH
        raw = self._data
        addrs = bytes(raw[ip_off + 12:ip_off + 20])
        ports = (
            bytes(raw[ip_off + 20:ip_off + 24]) if l4_len else b"\x00\x00\x00\x00"
        )
        key = addrs + ports + bytes((ipv4.proto,))
        parsed["flow_key"] = key
        return key

    def flow_digest(self) -> int:
        """CRC32 of :meth:`flow_key_bytes` (0 for non-IP packets), cached in
        the parse cache. Used for flow-stable hashing (traffic splits, LB)."""
        parsed = self._parsed
        if parsed is None:
            parsed = self._parse()
        digest = parsed.get("flow_digest")
        if digest is None:
            key = self.flow_key_bytes()
            digest = zlib.crc32(key) if key is not None else 0
            parsed["flow_digest"] = digest
        return digest

    # -- mutation ---------------------------------------------------------

    def commit(self) -> None:
        """Re-serialize cached headers back into the byte buffer.

        Headers obtained via the typed properties may be mutated in place;
        ``commit()`` writes them back at their original offsets. Every
        header has a fixed length, so the header region (everything before
        ``payload_offset``) is overwritten in place and the payload is
        neither read nor moved.
        """
        parsed = self._parse()
        self._data[:parsed["payload_offset"]] = b"".join([
            header.pack()
            for header in (parsed["nsh"], parsed["eth"], parsed["vlan"],
                           parsed["ipv4"], parsed["tcp"] or parsed["udp"])
            if header is not None
        ])
        # the cached header objects ARE what was just serialized, so the
        # parse cache stays valid; only the derived flow identity may have
        # changed (NAT rewrites)
        parsed.pop("flow_key", None)
        parsed.pop("flow_digest", None)

    def push_nsh(self, spi: int, si: int) -> None:
        """Encapsulate with an NSH header (meta-compiler 'NSHencap')."""
        self._data[:0] = pack_nsh(spi, si)
        parsed = self._parsed
        if parsed is not None:
            if parsed["nsh"] is None and parsed["eth"] is not None:
                # prepending 8 bytes shifts every offset but changes no
                # header content — update the cache instead of re-parsing
                parsed["nsh"] = _interned_nsh(spi, si)
                parsed["payload_offset"] += NSHHeader.LENGTH
            else:
                self._parsed = None
        self.metadata.spi = spi
        self.metadata.si = si

    def pop_nsh(self) -> Optional[NSHHeader]:
        """Decapsulate the NSH header, if present ('NSHdecap').

        When the parse cache is cold this peeks at the first bytes directly
        (same detection rules as :meth:`_parse`) instead of parsing the whole
        stack just to strip 8 bytes.
        """
        raw = self._data
        parsed = self._parsed
        if parsed is not None:
            nsh = parsed["nsh"]
            if nsh is None:
                return None
        else:
            if len(raw) < NSHHeader.LENGTH + EthernetHeader.LENGTH:
                return None
            if not _looks_like_nsh(raw):
                return None
            inner_ethertype = (raw[20] << 8) | raw[21]
            if inner_ethertype not in (ETHERTYPE_IPV4, ETHERTYPE_VLAN):
                return None
            first = int.from_bytes(raw[:4], "big")
            sp = int.from_bytes(raw[4:8], "big")
            nsh = NSHHeader(
                spi=sp >> 8,
                si=sp & 0xFF,
                next_proto=first & 0xFF,
                ttl=(first >> 22) & 0x3F,
            )
        del raw[:NSHHeader.LENGTH]
        if parsed is not None:
            # inner headers keep their content; only offsets shift left
            parsed["nsh"] = None
            parsed["payload_offset"] -= NSHHeader.LENGTH
        self.metadata.spi = nsh.spi
        self.metadata.si = nsh.si
        return nsh

    def push_vlan(self, vid: int, pcp: int = 0) -> None:
        """Insert an 802.1Q tag after Ethernet (Tunnel NF / OF SPI-SI)."""
        parsed = self._parse()
        eth = parsed["eth"]
        if eth is None:
            raise ValueError("cannot push VLAN on a non-Ethernet packet")
        base = NSHHeader.LENGTH if parsed["nsh"] is not None else 0
        vlan_hdr = VLANHeader(vid=vid, pcp=pcp, ethertype=eth.ethertype)
        eth_end = base + EthernetHeader.LENGTH
        new_eth = EthernetHeader(dst=eth.dst, src=eth.src, ethertype=ETHERTYPE_VLAN)
        self._data = (
            self._data[:base]
            + bytearray(new_eth.pack())
            + bytearray(vlan_hdr.pack())
            + self._data[eth_end:]
        )
        if parsed["vlan"] is None:
            # single-tag case: splice the new headers into the cache
            parsed["eth"] = new_eth
            parsed["vlan"] = vlan_hdr
            parsed["payload_offset"] += VLANHeader.LENGTH
        else:
            # stacked tags: the parser only models one, so re-parse
            self._parsed = None

    def pop_vlan(self) -> Optional[VLANHeader]:
        """Remove the 802.1Q tag, if present (Detunnel NF)."""
        parsed = self._parse()
        vlan = parsed["vlan"]
        eth = parsed["eth"]
        if vlan is None or eth is None:
            return None
        base = NSHHeader.LENGTH if parsed["nsh"] is not None else 0
        eth_end = base + EthernetHeader.LENGTH
        new_eth = EthernetHeader(dst=eth.dst, src=eth.src, ethertype=vlan.ethertype)
        self._data = (
            self._data[:base]
            + bytearray(new_eth.pack())
            + self._data[eth_end + VLANHeader.LENGTH:]
        )
        parsed["eth"] = new_eth
        parsed["vlan"] = None
        parsed["payload_offset"] -= VLANHeader.LENGTH
        return vlan

    def copy(self) -> "Packet":
        """Deep-copy the packet (bytes, metadata and — when this packet
        is already parsed — the parse cache, so a clone of a parsed
        template does not parse the same bytes again). The clone gets its
        own header objects: editing one and ``commit()`` never shows
        through to this packet."""
        clone = object.__new__(Packet)
        clone._data = self._data[:]
        parsed = self._parsed
        if parsed is not None:
            parsed = dict(parsed)
            for slot in _EDITABLE_HEADERS:
                header = parsed[slot]
                if header is not None:
                    parsed[slot] = _fresh(header)
        clone._parsed = parsed
        meta = self.metadata
        clone.metadata = PacketMetadata(
            drop_flag=meta.drop_flag,
            branch_decision=meta.branch_decision,
            seq=meta.seq,
            spi=meta.spi,
            si=meta.si,
            ingress_port=meta.ingress_port,
            egress_port=meta.egress_port,
            chain_id=meta.chain_id,
            timestamp_us=meta.timestamp_us,
            cycles_consumed=meta.cycles_consumed,
            cycles_by_device=dict(meta.cycles_by_device),
            processed_by=list(meta.processed_by),
            fields=dict(meta.fields),
        )
        return clone

    def __repr__(self) -> str:
        five = self.five_tuple()
        nsh = self.nsh
        tag = f" nsh(spi={nsh.spi},si={nsh.si})" if nsh else ""
        return f"<Packet {len(self)}B {five}{tag}>"


def _looks_like_nsh(raw: bytes) -> bool:
    """Heuristic: does the buffer start with a plausible NSH base header?

    Checks version==0, MD type 2, length==2 words — the exact encoding our
    ``NSHHeader.pack`` produces, which is what the simulated platforms emit.
    """
    if len(raw) < NSHHeader.LENGTH:
        return False
    first = int.from_bytes(raw[:4], "big")
    version = first >> 30
    length = (first >> 16) & 0x3F
    md_type = (first >> 8) & 0xF
    return version == 0 and length == 2 and md_type == 2
