"""The PISA ToR hop against the rack path it replaced.

:meth:`PisaHop.run` enters each packet at its ``metadata.spi``/``si``,
crosses the NF nodes its route lists, visiting modules in graph order with
one ``receive_batch`` each, and leaves the route's next coordinates in its
metadata. The oracle below is the rack's per-node switch walk as it was,
kept in substance: a packet waits at the next node of its route, the
earliest waiting node in the graph's topological order takes every packet
waiting there in one ``receive_batch``, in injection order, and a packet
past its route's last node takes the route's next coordinates; switch NF
modules are made as the rack made them, when a packet first reaches
them, with no cost database.

The routes are laid out as the rack lays them out: a route ends at its
hop's end or just before a merge node, and the rack enters the hop again
there. Batches mix entries at hop entries and at merge nodes, across two
chains, with an ACL that drops some flows and stateful NAT, Monitor and
LB modules. Both must agree on every output's bytes and metadata, next
coordinates included, and on every module's counters and RNG stream. A
second property holds probe mode to the scalar hop on the routes the
columnar loop may probe, and checks that it moves nothing.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bess.modules import make_nf_module
from repro.bess.pipeline import PisaHop
from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.exceptions import DataplaneError
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles

SEED = 23
_DROP = "ACL(rules=[{'src_ip': '10.1.0.0/30', 'drop': True}])"
CHAINS = chains_from_spec(
    f"chain t: BPF -> [{_DROP}, Tunnel -> Monitor] -> NAT -> IPv4Fwd\n"
    f"chain u: BPF -> [{_DROP}, Tunnel] -> LB -> NAT\n",
    slos=[SLO(t_min=1.0, t_max=2.0)] * 2,
)
NODES = {nid: node for chain in CHAINS
         for nid, node in chain.graph.nodes.items()}
#: node id -> its place in the graph order (chain, topological rank)
RANK = {nid: (c, r) for c, chain in enumerate(CHAINS)
        for r, nid in enumerate(chain.graph.topological_order())}

#: (spi, si) -> (node ids, next coordinates). Chain t's first path stays
#: on the switch; its second leaves BPF for a server (Tunnel) and enters
#: the switch again at Monitor. Both meet at NAT, a merge node: every
#: route stops short of it, and the rack enters the hop again there.
#: Chain u's paths stay on the switch and meet at LB; the NAT behind it
#: gets both paths' packets second in one call, in input order.
ROUTES = {
    (1, 255): (["t.n0", "t.n1"], (1, 253)),
    (1, 253): (["t.n4", "t.n5"], (1, 0)),
    (2, 255): (["t.n0"], (2, 254)),
    (2, 253): (["t.n3"], (2, 252)),
    (2, 252): (["t.n4", "t.n5"], (2, 0)),
    (3, 255): (["u.n0", "u.n1"], (3, 253)),
    (3, 253): (["u.n3", "u.n4"], (3, 0)),
    (4, 255): (["u.n0", "u.n2"], (4, 253)),
    (4, 253): (["u.n3", "u.n4"], (4, 0)),
}

# -- the oracle: the rack's per-node switch walk, as it was --------------------


def _switch_module(modules: dict, node_id: str):
    module = modules.get(node_id)
    if module is None:
        node = NODES[node_id]
        module = make_nf_module(
            node.nf_class,
            node.params,
            name=f"tor/{node_id}",
            database=default_profiles(),
            seed=f"{SEED}/tor",
        )
        # the PISA/OF pipeline runs at line rate: its NFs transform
        # packets but charge no CPU cycles
        module.database = None
        modules[node_id] = module
    return module


def _walk(modules: dict, packets: List[Packet]) -> List[Optional[Packet]]:
    """Each packet's output, or None where a switch NF dropped it."""
    waiting: Dict[tuple, list] = {}
    for packet in packets:
        nodes, nxt = ROUTES[(packet.metadata.spi, packet.metadata.si)]
        waiting.setdefault(RANK[nodes[0]], []).append(
            (packet, nodes, 0, nxt))
    outs = {}
    while waiting:
        group = sorted(waiting.pop(min(waiting)),
                       key=lambda entry: entry[0].metadata.seq)
        _packet, nodes, pos, _nxt = group[0]
        module = _switch_module(modules, nodes[pos])
        live = {packet.metadata.seq for _gate, packet
                in module.receive_batch([entry[0] for entry in group])}
        for packet, nodes, pos, nxt in group:
            if packet.metadata.seq not in live:
                continue
            if pos + 1 < len(nodes):
                waiting.setdefault(RANK[nodes[pos + 1]], []).append(
                    (packet, nodes, pos + 1, nxt))
            else:
                packet.metadata.spi, packet.metadata.si = nxt
                outs[packet.metadata.seq] = packet
    return [outs.get(packet.metadata.seq) for packet in packets]


# -- the hop and its inputs ----------------------------------------------------


def _hop() -> PisaHop:
    hop = PisaHop(default_profiles(), SEED)
    for coords, (nodes, nxt) in ROUTES.items():
        hop.routes[coords] = (tuple(NODES[nid] for nid in nodes), nxt)
    return hop


def _packet(coords, flow: int, seq: int) -> Packet:
    """Flow ``flow``'s packet at ``coords``: flows 0-3 come from the ACL's
    dropped /30, and every third is UDP."""
    packet = Packet.build(src_ip=f"10.1.0.{flow % 8}", src_port=1000 + flow,
                          proto=17 if flow % 3 == 0 else 6,
                          payload=b"flow-%d" % flow)
    meta = packet.metadata
    meta.spi, meta.si = coords
    meta.seq = seq
    return packet


def _packets(batch, base: int) -> List[Packet]:
    return [_packet(coords, flow, base + k)
            for k, (coords, flow) in enumerate(batch)]


def _state(modules: dict) -> dict:
    return {nid: (module.rx_packets, module.tx_packets,
                  module.dropped_packets, module.cycles_charged,
                  module._rng.getstate())
            for nid, module in modules.items()}


def _outcome(packet: Optional[Packet]):
    if packet is None:
        return None
    return packet.data, packet.metadata


inputs = st.tuples(st.sampled_from(sorted(ROUTES)), st.integers(0, 11))
batches = st.lists(st.lists(inputs, min_size=1, max_size=24),
                   min_size=1, max_size=4)

#: the routes the columnar loop may probe: no stateful NF on them
SAFE = sorted(key for key in ROUTES if _hop().vector_safe(*key))


def test_vector_safe_is_read_off_the_nf_classes():
    hop = _hop()
    assert SAFE == [(1, 255), (2, 255), (3, 255), (4, 255)]
    assert not hop.modules  # nothing made before a packet reaches it


@settings(max_examples=60, deadline=None)
@given(batches=batches)
def test_run_matches_the_per_node_walk(batches):
    live, oracle = _hop(), {}
    base = 0
    for batch in batches:
        got = live.run(_packets(batch, base))
        want = _walk(oracle, _packets(batch, base))
        base += len(batch)
        assert [_outcome(p) for p in got] == [_outcome(p) for p in want]
        assert _state(live.modules) == _state(oracle)


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.tuples(st.sampled_from(SAFE), st.integers(0, 11)),
                      min_size=1, max_size=24),
       warm=st.lists(inputs, max_size=8))
def test_probe_mode_records_what_a_scalar_run_counts(batch, warm):
    hop = _hop()
    hop.run(_packets(warm, 0))
    before = _state(hop.modules)
    charged: List[tuple] = []
    probed = hop.run(_packets(batch, 100), charged)
    after = _state(hop.modules)
    # probe mode counts nothing; a module made for it is as new
    assert {nid: after[nid] for nid in before} == before
    fresh = _state({nid: _switch_module({}, nid)
                    for nid in after.keys() - before.keys()})
    assert {nid: after[nid] for nid in fresh} == fresh
    assert len(charged) == len(probed) == len(batch)
    for k, ((coords, flow), out, (module_deltas, runtime_deltas,
                                  rule_hits)) in enumerate(
            zip(batch, probed, charged)):
        assert runtime_deltas == () and rule_hits == ()
        prior = _state(hop.modules)
        (scalar,) = hop.run([_packet(coords, flow, 100 + k)])
        moved = _state(hop.modules)
        assert _outcome(out) == _outcome(scalar)
        assert [(module.name, *counts) for module, *counts
                in module_deltas] == [
            (f"tor/{nid}", *(a - b for a, b in zip(moved[nid][:4],
                                                  prior[nid][:4])))
            for nid in ROUTES[coords][0] if moved[nid] != prior[nid]
        ]


def test_a_module_that_emits_twice_is_an_error(monkeypatch):
    hop = _hop()
    module = hop._module(NODES["t.n0"])
    monkeypatch.setattr(module, "process",
                        lambda packet: [(0, packet), (0, packet)])
    with pytest.raises(DataplaneError, match="one packet out per input"):
        hop.run([_packet((2, 255), 5, 0)])
