"""Functional NF module tests: every Table 3 NF actually works."""

import pytest

from repro.bess.modules import MODULE_CLASSES, make_nf_module
from repro.exceptions import DataplaneError
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet


def run(module, packet):
    outs = module.receive(packet)
    return outs[0][1] if outs else None


class TestACL:
    def test_permit_rule(self):
        acl = make_nf_module("ACL", {"rules": [
            {"dst_ip": "10.0.0.0/8", "drop": False},
        ], "default_drop": True})
        ok = run(acl, Packet.build(dst_ip="10.1.1.1"))
        blocked = run(acl, Packet.build(dst_ip="192.168.1.1"))
        assert ok is not None
        assert blocked is None

    def test_drop_rule_first_match_wins(self):
        acl = make_nf_module("ACL", {"rules": [
            {"src_ip": "172.16.0.0/12", "drop": True},
            {"src_ip": "172.16.0.0/12", "drop": False},
        ]})
        assert run(acl, Packet.build(src_ip="172.16.5.5")) is None

    def test_port_and_proto_match(self):
        acl = make_nf_module("ACL", {"rules": [
            {"dst_port": 22, "proto": PROTO_TCP, "drop": True},
        ]})
        assert run(acl, Packet.build(dst_port=22, proto=PROTO_TCP)) is None
        assert run(acl, Packet.build(dst_port=22, proto=PROTO_UDP)) is not None

    def test_default_permit(self):
        acl = make_nf_module("ACL", {"rules": []})
        assert run(acl, Packet.build()) is not None


class TestBPF:
    def test_traffic_class_assignment(self):
        bpf = make_nf_module("BPF", {"filters": [
            {"dst_port": 80},
            {"dst_port": 443},
        ]})
        p1 = run(bpf, Packet.build(dst_port=80))
        p2 = run(bpf, Packet.build(dst_port=443))
        p3 = run(bpf, Packet.build(dst_port=8080))
        assert p1.metadata.fields["traffic_class"] == 0
        assert p2.metadata.fields["traffic_class"] == 1
        assert p3.metadata.fields["traffic_class"] == -1

    def test_vlan_filter(self):
        bpf = make_nf_module("BPF", {"filters": [{"vlan_tag": 7}]})
        tagged = run(bpf, Packet.build(vlan=7))
        untagged = run(bpf, Packet.build())
        assert tagged.metadata.fields["traffic_class"] == 0
        assert untagged.metadata.fields["traffic_class"] == -1


class TestUrlFilter:
    def test_blocks_pattern(self):
        uf = make_nf_module("UrlFilter", {"patterns": ["evil.example"]})
        assert run(uf, Packet.build(payload=b"GET http://evil.example/")) \
            is None
        assert run(uf, Packet.build(payload=b"GET http://ok.example/")) \
            is not None
        assert uf.matches == 1


class TestCrypto:
    def test_encrypt_changes_payload(self):
        enc = make_nf_module("Encrypt")
        pkt = Packet.build(payload=b"secret data here")
        out = run(enc, pkt)
        assert out.payload != b"secret data here"

    def test_encrypt_decrypt_roundtrip(self):
        enc = make_nf_module("Encrypt")
        dec = make_nf_module("Decrypt")
        pkt = Packet.build(payload=b"round trip payload!")
        out = run(dec, run(enc, pkt))
        assert out.payload == b"round trip payload!"

    def test_fastencrypt_differs_from_encrypt(self):
        pkt1 = Packet.build(payload=b"same payload")
        pkt2 = Packet.build(payload=b"same payload")
        e1 = run(make_nf_module("Encrypt"), pkt1)
        e2 = run(make_nf_module("FastEncrypt"), pkt2)
        assert e1.payload != e2.payload  # different keys

    def test_length_preserved(self):
        pkt = Packet.build(payload=b"x" * 333)
        out = run(make_nf_module("Encrypt"), pkt)
        assert len(out.payload) == 333

    @pytest.mark.parametrize("key, nonce, length, golden", [
        # a flow key as nonce, 1.5 digests
        (b"lemur-aes-cbc-128", bytes.fromhex("0a0100010a00000104000050"
                                             "06"), 48,
         "46449578b6146cfcac3f369deac39c95163fd03f28e3243e2ce6290c7dc15b67"
         "6d54157284bd8294738b5357c55f8b45"),
        # exactly one digest
        (b"k", b"non-ip", 32,
         "fb29b58ebd3421b189d709e2a343c2b0d3ad6cad5e2b7dd7836854014918b1cb"),
        # three digests, the last cut
        (b"lemur-aes-cbc-128", b"nonce", 75,
         "4e64d7a8dac07d69c42aa64e671fe8fbe733cf81d22f92333deac35ee9af09ad"
         "6ac6c42d6c739740b0e222101a211b4d7c512bd8d0aa5a4844759e1626470df0"
         "6c02f0e0fef0ebd03cc366"),
    ])
    def test_keystream_bytes_are_pinned(self, key, nonce, length, golden):
        from repro.bess.modules.crypto import _keystream
        assert _keystream(key, nonce, length).hex() == golden


class TestTunnel:
    def test_push_pop(self):
        tun = make_nf_module("Tunnel", {"vid": 42})
        detun = make_nf_module("Detunnel")
        pkt = Packet.build()
        tagged = run(tun, pkt)
        assert tagged.vlan.vid == 42
        untagged = run(detun, tagged)
        assert untagged.vlan is None


class TestIPv4Fwd:
    def test_lpm_longest_match(self):
        fwd = make_nf_module("IPv4Fwd", {"routes": [
            {"prefix": "10.0.0.0/8", "port": 1},
            {"prefix": "10.1.0.0/16", "port": 2},
        ]})
        broad = run(fwd, Packet.build(dst_ip="10.9.0.1"))
        narrow = run(fwd, Packet.build(dst_ip="10.1.0.1"))
        assert broad.metadata.egress_port == 1
        assert narrow.metadata.egress_port == 2

    def test_no_route_drops(self):
        fwd = make_nf_module("IPv4Fwd", {"routes": [
            {"prefix": "10.0.0.0/8", "port": 1},
        ]})
        assert run(fwd, Packet.build(dst_ip="192.168.1.1")) is None

    def test_mac_rewrite(self):
        fwd = make_nf_module("IPv4Fwd", {"routes": [
            {"prefix": "0.0.0.0/0", "port": 1,
             "dst_mac": "02:11:22:33:44:55"},
        ]})
        out = run(fwd, Packet.build())
        assert out.eth.dst == "02:11:22:33:44:55"


class TestNAT:
    def test_source_rewrite_stable_per_flow(self):
        nat = make_nf_module("NAT", {"nat_ip": "198.51.100.1"})
        p1 = run(nat, Packet.build(src_ip="10.0.0.5", src_port=1000))
        p2 = run(nat, Packet.build(src_ip="10.0.0.5", src_port=1000))
        assert p1.ipv4.src == "198.51.100.1"
        assert p1.tcp is None  # default UDP
        assert p1.udp.src_port == p2.udp.src_port

    def test_different_flows_different_ports(self):
        nat = make_nf_module("NAT")
        p1 = run(nat, Packet.build(src_ip="10.0.0.5", src_port=1000))
        p2 = run(nat, Packet.build(src_ip="10.0.0.6", src_port=1000))
        assert p1.udp.src_port != p2.udp.src_port

    def test_reverse_lookup(self):
        nat = make_nf_module("NAT")
        out = run(nat, Packet.build(src_ip="10.0.0.9", src_port=777))
        original = nat.translate_back(out.udp.src_port)
        assert original == ("10.0.0.9", 777, PROTO_UDP)

    def test_table_exhaustion_drops_new_flows(self):
        nat = make_nf_module("NAT", {"entries": 2})
        run(nat, Packet.build(src_ip="10.0.0.1", src_port=1))
        run(nat, Packet.build(src_ip="10.0.0.2", src_port=2))
        assert run(nat, Packet.build(src_ip="10.0.0.3", src_port=3)) is None
        # existing flow still translates
        assert run(nat, Packet.build(src_ip="10.0.0.1", src_port=1)) \
            is not None
        assert nat.active_entries == 2


class TestLB:
    def test_flow_sticks_to_backend(self):
        lb = make_nf_module("LB", {"backends": ["10.10.0.1", "10.10.0.2"]})
        p1 = run(lb, Packet.build(src_port=5))
        p2 = run(lb, Packet.build(src_port=5))
        assert p1.ipv4.dst == p2.ipv4.dst

    def test_flows_spread_across_backends(self):
        lb = make_nf_module("LB", {"backends": ["10.10.0.1", "10.10.0.2",
                                                "10.10.0.3"]})
        dests = {
            run(lb, Packet.build(src_port=p)).ipv4.dst
            for p in range(200, 240)
        }
        assert len(dests) >= 2

    def test_backend_count_param(self):
        lb = make_nf_module("LB", {"backends": 4})
        assert len(lb.backends) == 4

    def test_empty_backends_rejected(self):
        with pytest.raises(DataplaneError):
            make_nf_module("LB", {"backends": []})


class TestMonitor:
    def test_per_flow_counters(self):
        mon = make_nf_module("Monitor")
        for _ in range(3):
            run(mon, Packet.build(src_ip="10.0.0.1", src_port=1))
        run(mon, Packet.build(src_ip="10.0.0.2", src_port=2))
        assert len(mon.flows) == 2
        top = mon.top_flows(1)
        assert top[0][1].packets == 3


class TestLimiter:
    def test_enforces_rate(self):
        limiter = make_nf_module(
            "Limiter", {"rate_mbps": 8.0, "burst_bytes": 1500}
        )
        # 1500B packets at 8 Mbps: one packet per 1500us
        passed = 0
        for i in range(10):
            pkt = Packet.build(total_bytes=1500)
            pkt.metadata.timestamp_us = i * 100.0  # 10x too fast
            if run(limiter, pkt) is not None:
                passed += 1
        assert 1 <= passed < 10
        assert limiter.exceeded == 10 - passed

    def test_conforming_traffic_passes(self):
        limiter = make_nf_module(
            "Limiter", {"rate_mbps": 1000.0, "burst_bytes": 100000}
        )
        for i in range(10):
            pkt = Packet.build(total_bytes=100)
            pkt.metadata.timestamp_us = i * 1000.0
            assert run(limiter, pkt) is not None


class TestDedup:
    def test_redundancy_eliminated(self):
        dedup = make_nf_module("Dedup")
        chunk = bytes(range(64)) * 4  # 256B of repeated content
        p1 = run(dedup, Packet.build(payload=chunk))
        p2 = run(dedup, Packet.build(payload=chunk))
        assert len(p2.payload) < len(p1.payload)
        assert dedup.hits > 0
        assert dedup.compression_ratio < 1.0

    def test_unique_content_not_compressed(self):
        dedup = make_nf_module("Dedup")
        import os
        random_payload = bytes((i * 37 + 11) % 256 for i in range(256))
        out = run(dedup, Packet.build(payload=random_payload))
        assert len(out.payload) == 256

    def test_short_payload_untouched(self):
        dedup = make_nf_module("Dedup")
        out = run(dedup, Packet.build(payload=b"short"))
        assert out.payload == b"short"


class TestRegistry:
    def test_all_server_nfs_have_modules(self):
        from repro.chain.vocabulary import default_vocabulary
        from repro.hw.platform import Platform
        vocab = default_vocabulary()
        for name in vocab.names():
            if vocab.lookup(name).available_on(Platform.SERVER):
                assert name in MODULE_CLASSES

    def test_unknown_nf_rejected(self):
        with pytest.raises(DataplaneError):
            make_nf_module("Quantum")
