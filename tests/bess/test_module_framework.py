"""Module/Pipeline framework tests."""

import pytest

from repro.bess.module import Module, Pipeline
from repro.exceptions import DataplaneError
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles


class Passthrough(Module):
    pass


class Dropper(Module):
    def process(self, packet):
        packet.metadata.drop_flag = True
        return []


class Splitter(Module):
    def process(self, packet):
        return [(0, packet), (1, packet.copy())]


class TestWiring:
    def test_connect_chains(self):
        a, b, c = Passthrough("a"), Passthrough("b"), Passthrough("c")
        a.connect(b).connect(c)
        assert a.downstream() is b
        assert b.downstream() is c

    def test_double_connect_rejected(self):
        a, b = Passthrough("a"), Passthrough("b")
        a.connect(b)
        with pytest.raises(DataplaneError):
            a.connect(b)

    def test_multiple_gates(self):
        s = Splitter("s")
        b, c = Passthrough("b"), Passthrough("c")
        s.connect(b, ogate=0)
        s.connect(c, ogate=1)
        assert s.downstream(0) is b
        assert s.downstream(1) is c


class TestPipeline:
    def test_push_to_exit(self):
        pipeline = Pipeline("p")
        a = pipeline.add(Passthrough("a"), entry=True)
        b = pipeline.add(Passthrough("b"))
        a.connect(b)
        exits = pipeline.push(Packet.build())
        assert len(exits) == 1
        assert exits[0][0] is b

    def test_drop_produces_no_exit(self):
        pipeline = Pipeline("p")
        a = pipeline.add(Passthrough("a"), entry=True)
        d = pipeline.add(Dropper("d"))
        a.connect(d)
        assert pipeline.push(Packet.build()) == []
        assert d.dropped_packets == 1

    def test_fanout(self):
        pipeline = Pipeline("p")
        s = pipeline.add(Splitter("s"), entry=True)
        pipeline.add(Passthrough("b"))
        pipeline.add(Passthrough("c"))
        s.connect(pipeline.module("b"), ogate=0)
        s.connect(pipeline.module("c"), ogate=1)
        exits = pipeline.push(Packet.build())
        assert len(exits) == 2

    def test_duplicate_module_rejected(self):
        pipeline = Pipeline("p")
        pipeline.add(Passthrough("a"))
        with pytest.raises(DataplaneError):
            pipeline.add(Passthrough("a"))

    def test_unknown_entry(self):
        pipeline = Pipeline("p")
        pipeline.add(Passthrough("a"), entry=True)
        with pytest.raises(DataplaneError):
            pipeline.push(Packet.build(), entry="nope")

    def test_ambiguous_entry(self):
        pipeline = Pipeline("p")
        pipeline.add(Passthrough("a"), entry=True)
        pipeline.add(Passthrough("b"), entry=True)
        with pytest.raises(DataplaneError):
            pipeline.push(Packet.build())

    def test_stats(self):
        pipeline = Pipeline("p")
        a = pipeline.add(Passthrough("a"), entry=True)
        pipeline.push(Packet.build())
        stats = pipeline.stats()
        assert stats["a"]["rx"] == 1
        assert stats["a"]["tx"] == 1


class TestProbe:
    def test_probe_batch_skips_accounting(self):
        from repro.bess.modules import make_nf_module
        module = make_nf_module(
            "ACL", {"rules": [{"src_ip": "10.9.9.9/32", "drop": True}]},
            database=default_profiles())
        rng = module._rng.getstate()
        kept, dropped = Packet.build(), Packet.build(src_ip="10.9.9.9")
        (live, counts), (gone, drop_counts) = module.probe_batch(
            [kept, dropped])
        assert counts == (1, 1, 0, 0) and live == [(0, kept)]
        assert drop_counts == (1, 0, 1, 0) and gone == []
        assert kept.metadata.cycles_consumed == 0
        assert module._rng.getstate() == rng
        assert (module.rx_packets, module.tx_packets,
                module.dropped_packets) == (0, 0, 0)


class TestCycleAccounting:
    def test_nf_module_charges_cycles(self):
        from repro.bess.modules import make_nf_module
        module = make_nf_module("ACL", {"rules": []},
                                database=default_profiles())
        pkt = Packet.build()
        module.receive(pkt)
        profile = default_profiles().get("ACL")
        assert pkt.metadata.cycles_consumed > 0
        assert pkt.metadata.cycles_consumed <= profile.cycles

    def test_plain_module_charges_nothing(self):
        pkt = Packet.build()
        Passthrough("a").receive(pkt)
        assert pkt.metadata.cycles_consumed == 0
