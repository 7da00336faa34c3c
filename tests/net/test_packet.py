"""Packet buffer + metadata tests."""

import pytest

from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet


class TestBuild:
    def test_udp_packet_parses(self):
        pkt = Packet.build(src_ip="10.1.1.1", dst_ip="10.2.2.2",
                           src_port=1111, dst_port=53, proto=PROTO_UDP,
                           payload=b"hello")
        assert pkt.ipv4.src == "10.1.1.1"
        assert pkt.udp.dst_port == 53
        assert pkt.payload == b"hello"
        assert pkt.tcp is None

    def test_tcp_packet_parses(self):
        pkt = Packet.build(proto=PROTO_TCP, src_port=2222, dst_port=443)
        assert pkt.tcp.src_port == 2222
        assert pkt.udp is None

    def test_total_bytes_padding(self):
        pkt = Packet.build(payload=b"x", total_bytes=1500)
        assert len(pkt) == 1500

    def test_vlan_packet(self):
        pkt = Packet.build(vlan=77)
        assert pkt.vlan.vid == 77
        assert pkt.ipv4 is not None

    def test_five_tuple(self):
        pkt = Packet.build(src_ip="1.2.3.4", dst_ip="5.6.7.8",
                           src_port=9, dst_port=10, proto=PROTO_TCP)
        assert pkt.five_tuple() == ("1.2.3.4", "5.6.7.8", 9, 10, PROTO_TCP)


class TestMutation:
    def test_header_mutation_commit(self):
        pkt = Packet.build(src_ip="10.0.0.1", dst_ip="10.0.0.2")
        pkt.ipv4.dst = "172.16.0.9"
        pkt.commit()
        reparsed = Packet(pkt.data)
        assert reparsed.ipv4.dst == "172.16.0.9"

    def test_payload_replacement(self):
        pkt = Packet.build(payload=b"aaaa")
        pkt.payload = b"bb"
        assert pkt.payload == b"bb"
        assert pkt.ipv4 is not None  # headers intact


class TestNSHOps:
    def test_push_pop_nsh(self):
        pkt = Packet.build(payload=b"data")
        original = pkt.data
        pkt.push_nsh(spi=5, si=250)
        assert pkt.nsh.spi == 5
        assert pkt.metadata.spi == 5
        popped = pkt.pop_nsh()
        assert popped.si == 250
        assert pkt.data == original
        assert pkt.nsh is None

    def test_pop_without_nsh_returns_none(self):
        pkt = Packet.build()
        assert pkt.pop_nsh() is None

    def test_nsh_then_inner_parse(self):
        pkt = Packet.build(src_ip="10.9.9.9")
        pkt.push_nsh(spi=1, si=255)
        assert pkt.ipv4.src == "10.9.9.9"  # parses through the NSH


class TestVLANOps:
    def test_push_pop_vlan(self):
        pkt = Packet.build(payload=b"p")
        before = len(pkt)
        pkt.push_vlan(vid=100)
        assert pkt.vlan.vid == 100
        assert len(pkt) == before + 4
        popped = pkt.pop_vlan()
        assert popped.vid == 100
        assert pkt.vlan is None
        assert len(pkt) == before

    def test_vlan_under_nsh(self):
        pkt = Packet.build()
        pkt.push_nsh(spi=2, si=200)
        pkt.push_vlan(vid=9)
        assert pkt.nsh.spi == 2
        assert pkt.vlan.vid == 9
        pkt.pop_vlan()
        assert pkt.nsh.spi == 2

    def test_pop_vlan_untagged_is_noop(self):
        pkt = Packet.build()
        assert pkt.pop_vlan() is None


class TestCopy:
    def test_copy_is_deep(self):
        pkt = Packet.build(payload=b"orig")
        pkt.metadata.processed_by.append("nf1")
        clone = pkt.copy()
        clone.payload = b"changed"
        clone.metadata.processed_by.append("nf2")
        assert pkt.payload == b"orig"
        assert pkt.metadata.processed_by == ["nf1"]

    def test_copy_preserves_metadata(self):
        pkt = Packet.build()
        pkt.metadata.spi = 4
        pkt.metadata.fields["k"] = 1
        clone = pkt.copy()
        assert clone.metadata.spi == 4
        assert clone.metadata.fields == {"k": 1}

    @pytest.mark.parametrize("build", [
        dict(proto=PROTO_UDP),
        dict(proto=PROTO_TCP),
        dict(proto=PROTO_UDP, vlan=77),
    ], ids=["udp", "tcp", "vlan"])
    def test_clone_of_a_parsed_template_carries_its_own_parse(self, build):
        """A parsed template hands its clone the parse (no second parse of
        the same bytes), but never its header objects: editing a clone's
        header and committing leaves the template's bytes, parse and flow
        identity alone."""
        template = Packet.build(src_ip="10.0.0.1", dst_ip="10.0.0.2",
                                src_port=1234, dst_port=80, **build)
        digest = template.flow_digest()  # parses and hashes the template
        before = template.data
        parsed = {slot: getattr(template, slot)
                  for slot in ("eth", "vlan", "ipv4", "tcp", "udp")}

        clone = template.copy()
        assert clone._parsed is not None  # carried, not re-derived
        assert clone.flow_digest() == digest
        for slot, header in parsed.items():
            if header is None:
                assert getattr(clone, slot) is None
            else:
                assert getattr(clone, slot) == header
                assert getattr(clone, slot) is not header

        # what rewrite.py does: edit in place, then commit
        clone.eth.dst = "02:aa:bb:cc:dd:ee"
        clone.ipv4.src = "192.0.2.1"
        (clone.tcp or clone.udp).src_port = 4242
        if clone.vlan is not None:
            clone.vlan.vid = 99
        clone.commit()

        assert template.data == before
        for slot, header in parsed.items():
            assert getattr(template, slot) is header
        assert template.eth.dst == "02:00:00:00:00:02"
        assert template.ipv4.src == "10.0.0.1"
        assert template.flow_digest() == digest
        # the clone's bytes are the edit, exactly as a cold parse reads it
        assert clone.ipv4.src == Packet(clone.data).ipv4.src == "192.0.2.1"
        assert clone.flow_digest() == Packet(clone.data).flow_digest()
        assert clone.flow_digest() != digest

    def test_clone_of_an_nsh_template_shares_only_the_nsh_header(self):
        template = Packet.build()
        template.push_nsh(7, 250)
        assert template.nsh.spi == 7  # parsed
        clone = template.copy()
        assert clone.nsh is template.nsh  # read-only everywhere: shared
        assert clone.eth is not template.eth
        assert clone.pop_nsh().si == 250
        assert template.nsh.si == 250 and template.data[:8] != clone.data[:8]

    def test_clone_of_an_unparsed_packet_stays_unparsed(self):
        clone = Packet(Packet.build().data).copy()
        assert clone._parsed is None
        assert clone.ipv4.dst == "10.0.0.2"
