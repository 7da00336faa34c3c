"""The batched hop probes against the one-signature probes they replaced.

A hop probe runs a flow template's clone through the platform runtime and
records what replaying it costs (``repro.sim.runtime._HopProbe``). The rack
probes every template a hop's memo misses in one call, ``_probe_hop``: the
hop's device (server, SmartNIC, or the ToR's PISA NFs or OpenFlow rules)
in its probe mode. The four functions below are the one-signature probes
of the previous design, one per hop kind, kept verbatim (``self`` is the
rack) but for what the probe record has gained since: the SmartNIC one
enters its clone at metadata coordinates, as the runtime's scalar ``run``
takes them, where it pushed an NSH tag; a dropped clone keeps the fixed
cycles it was charged; the OpenFlow one tags its clone with
:func:`~repro.openflow.switch.vid_at`, reads the rules it matched off
their counters, and leaves the next hop's coordinates (the path's next
hop, SI 0 where it ends) in its output's metadata; the PISA one does too,
reaches its modules through the rack's :class:`PisaHop`, and stops short
at a merge node past the hop's entry, where the rack enters the hop
again (the next coordinates are then that node's). Each batched call
made while columns run is checked against them on the same rack state:
equal ``_HopProbe`` fields and effect deltas, the same interned effect
class, templates left as they were, and every module counter, profile
database and RNG stream — and every runtime and flow-rule counter —
unchanged.
"""

import copy
from typing import List, Optional

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bess.pipeline import PisaHop, ServerHop
from repro.ebpf.nic import SmartNICRuntime
from repro.hw.spec import topology_for
from repro.metacompiler.nsh import INITIAL_SI
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.openflow.switch import OpenFlowRuntime, vid_at
from repro.sim.columns import PacketColumns
from repro.sim.runtime import (
    _freeze_template,
    _HopProbe,
    _chain_packet,
)
from repro.sim.traffic import TrafficEngine, TrafficSpec

# -- the oracle: the one-signature probes ------------------------------------


def _next_coords(self, spi: int, si: int) -> tuple:
    """Where the path of the hop entered at (spi, si) goes on."""
    path, hop = self._hop_at[(spi, si)]
    nxt = path.hop_after(path.hops.index(hop))
    return spi, nxt.entry_si if nxt is not None else 0


def _probe_of_sig(self, of: OpenFlowRuntime, spi: int, si: int,
                  template: Packet) -> Optional[_HopProbe]:
    vid = vid_at(spi, si)
    clone = template.copy()
    if clone.vlan is None:
        clone.push_vlan(vid)
    else:
        clone.vlan.vid = vid
        clone.commit()
    snap = (of.rx, of.tx, of.drops)
    rules = [rule for table in of.tables for rule in table.rules]
    counts = [(rule.packets, rule.bytes) for rule in rules]
    of_result = of.process(clone)
    runtime_deltas = (
        of.rx - snap[0], of.tx - snap[1], of.drops - snap[2], 0
    )
    of.rx, of.tx, of.drops = snap
    # a walk matches at most one rule per table, front to back
    trace: List[tuple] = []
    for rule, (packets, length) in zip(rules, counts):
        if rule.packets != packets:
            trace.append((rule, rule.bytes - length))
            rule.packets, rule.bytes = packets, length
    if of_result.dropped:
        probe = _HopProbe(survived=False)
    else:
        out = of_result.packet
        out.pop_vlan()
        next_spi, next_si = _next_coords(self, spi, si)
        out.metadata.spi, out.metadata.si = next_spi, next_si
        probe = _HopProbe(survived=True, template=_freeze_template(out),
                          next_spi=next_spi, next_si=next_si)
    return self._with_effect(probe, runtime_deltas=runtime_deltas,
                             rule_hits=trace)

def _probe_pisa_sig(self, pisa: PisaHop, spi: int, si: int,
                    template: Packet) -> Optional[_HopProbe]:
    path, hop = self._hop_at[(spi, si)]
    # path positions: the node entered, the hop's end, and the next node
    # the rack enters the hop at (a merge node), if any
    first = INITIAL_SI - si
    end = INITIAL_SI - hop.entry_si + len(hop.node_ids)
    stop = first + 1
    while stop < end and (spi, INITIAL_SI - stop) not in self._hop_at:
        stop += 1
    if stop < end:
        next_spi, next_si = spi, INITIAL_SI - stop
    else:
        next_spi, next_si = _next_coords(self, spi, hop.entry_si)
    modules, snaps = [], []
    live = [template.copy()]
    for nid in path.node_ids[first:stop]:
        if not live:
            break
        module = pisa._module(NODES[id(self)][nid])
        modules.append(module)
        snaps.append((module.rx_packets, module.tx_packets,
                      module.dropped_packets, module.cycles_charged))
        live = [pkt for _gate, pkt in module.receive_batch(live)]
    module_deltas = []
    for module, snap in zip(modules, snaps):
        deltas = (
            module.rx_packets - snap[0],
            module.tx_packets - snap[1],
            module.dropped_packets - snap[2],
            module.cycles_charged - snap[3],
        )
        if any(deltas):
            module_deltas.append((module, *deltas))
        (module.rx_packets, module.tx_packets,
         module.dropped_packets, module.cycles_charged) = snap
    if len(live) > 1:
        return None  # multi-emit switch NFs take the scalar path
    if live:
        out = live[0]
        out.metadata.spi, out.metadata.si = next_spi, next_si
        pkt_cycles = out.metadata.cycles_consumed
        probe = _HopProbe(survived=True,
                          template=_freeze_template(out),
                          next_spi=next_spi, next_si=next_si,
                          pkt_cycles=pkt_cycles)
    else:
        probe = _HopProbe(survived=False)
    return self._with_effect(probe, module_deltas)

def _probe_server_sig(self, server_rt: ServerHop, spi: int, si: int,
                      template: Packet) -> Optional[_HopProbe]:
    modules = list(server_rt.pipeline.modules.values())
    snaps = [
        (m.rx_packets, m.tx_packets, m.dropped_packets,
         m.cycles_charged, m.database)
        for m in modules
    ]
    # database=None makes account() a no-op, so the probe cannot
    # advance any module's RNG stream; fixed infra charges (NSH
    # encap/decap, demux LB) still land in cycles_consumed and the
    # counter diffs below.
    for module in modules:
        module.database = None
    pending = server_rt.port_out.drain()
    clone = template.copy()
    clone.push_nsh(spi, si)
    try:
        server_rt.pipeline.push_batch(
            [clone], entry=server_rt.port_inc.name
        )
        emitted = server_rt.port_out.drain()
    finally:
        if pending:
            server_rt.port_out.emitted = (
                pending + server_rt.port_out.emitted
            )
        module_deltas = []
        rng_modules = []
        replayable = True
        for module, snap in zip(modules, snaps):
            deltas = (
                module.rx_packets - snap[0],
                module.tx_packets - snap[1],
                module.dropped_packets - snap[2],
                module.cycles_charged - snap[3],
            )
            if any(deltas):
                module_deltas.append((module, *deltas))
                if snap[4] is not None and module.nf_class is not None \
                        and deltas[0]:
                    if deltas[0] != 1:
                        replayable = False  # revisit loops: scalar path
                    rng_modules.append(module)
            (module.rx_packets, module.tx_packets,
             module.dropped_packets, module.cycles_charged) = snap[:4]
            module.database = snap[4]
    if not replayable or len(emitted) > 1:
        return None
    if emitted:
        out = emitted[0]
        nsh = out.pop_nsh()
        if nsh is None:
            return None  # let the scalar path raise faithfully
        pkt_cycles = out.metadata.cycles_consumed
        probe = _HopProbe(survived=True,
                          template=_freeze_template(out),
                          next_spi=nsh.spi, next_si=nsh.si,
                          pkt_cycles=pkt_cycles)
    else:
        probe = _HopProbe(survived=False,
                          pkt_cycles=clone.metadata.cycles_consumed)
    return self._with_effect(probe, module_deltas, rng_modules)

def _probe_nic_sig(self, runtime: SmartNICRuntime, spi: int, si: int,
                   template: Packet) -> Optional[_HopProbe]:
    entry = runtime.route_entry(spi, si)
    module = entry[0] if entry is not None else None
    msnap = None
    if module is not None:
        msnap = (module.rx_packets, module.tx_packets,
                 module.dropped_packets, module.cycles_charged)
    rsnap = (runtime.rx, runtime.tx, runtime.drops,
             runtime.cycles_charged)
    clone = template.copy()
    clone.metadata.spi, clone.metadata.si = spi, si
    (out,) = runtime.run([clone])
    module_deltas = []
    if module is not None:
        deltas = (
            module.rx_packets - msnap[0],
            module.tx_packets - msnap[1],
            module.dropped_packets - msnap[2],
            module.cycles_charged - msnap[3],
        )
        if any(deltas):
            module_deltas.append((module, *deltas))
        (module.rx_packets, module.tx_packets,
         module.dropped_packets, module.cycles_charged) = msnap
    runtime_deltas = (
        runtime.rx - rsnap[0], runtime.tx - rsnap[1],
        runtime.drops - rsnap[2], runtime.cycles_charged - rsnap[3],
    )
    runtime.rx, runtime.tx, runtime.drops, runtime.cycles_charged = rsnap
    if out is not None:
        meta = out.metadata
        pkt_cycles = meta.cycles_consumed
        probe = _HopProbe(survived=True,
                          template=_freeze_template(out),
                          next_spi=meta.spi, next_si=meta.si,
                          pkt_cycles=pkt_cycles)
    else:
        probe = _HopProbe(survived=False,
                          pkt_cycles=clone.metadata.cycles_consumed)
    return self._with_effect(probe, module_deltas,
                             runtime_deltas=runtime_deltas)


#: hop kind -> its device class and oracle
ORACLES = {
    "server": (ServerHop, _probe_server_sig),
    "nic": (SmartNICRuntime, _probe_nic_sig),
    "openflow": (OpenFlowRuntime, _probe_of_sig),
    "pisa": (PisaHop, _probe_pisa_sig),
}

#: ``id(rack)`` -> node id -> graph node, for the PISA oracle
NODES = {}

_DROP = "ACL(rules=[{'src_ip': '10.1.0.0/30', 'drop': True}])"

#: preset[:placement strategy] -> (spec, per-chain (t_min, t_max) Mbps):
#: vector-safe hops on every platform the preset has, ACLs that drop some
#: flows (on a server too, where the all-software placement puts one),
#: replicated server subgroups (one route class per demux instance),
#: branches, arms that merge inside a switch hop, and a stateful NAT hop
#: that no probe may enter
RACKS = {
    "paper-smartnic": (
        "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
        "chain b: ACL -> Encrypt -> IPv4Fwd\n",
        ((1000.0, 39000.0),) * 2,
    ),
    "paper-testbed": (
        f"chain m: Encrypt -> {_DROP} -> IPv4Fwd\n"
        f"chain n: BPF -> [Encrypt -> {_DROP} -> IPv4Fwd, "
        "Tunnel -> IPv4Fwd]\n"
        f"chain v: BPF -> [{_DROP}, Tunnel] -> IPv4Fwd\n",
        ((3000.0, 30000.0),) * 3,
    ),
    "multi-server": (
        "chain base0: ACL -> Encrypt -> IPv4Fwd\n"
        "chain base1: BPF -> NAT -> IPv4Fwd\n",
        ((1000.0, 20000.0),) * 2,
    ),
    "paper-openflow": (
        f"chain a: Detunnel -> Encrypt -> {_DROP}\n",
        ((100.0, 9000.0),),
    ),
    "paper-testbed:sw-preferred": (
        f"chain s: {_DROP} -> Encrypt -> IPv4Fwd\n",
        ((1000.0, 20000.0),),
    ),
}

#: hop kind -> templates checked against its oracle, over the module
CHECKED = {kind: 0 for kind in ORACLES}

_ENGINES = {}


def _engine(preset: str) -> TrafficEngine:
    """``preset``'s rack, deployed once, its probes cross-checked."""
    engine = _ENGINES.get(preset)
    if engine is None:
        spec_text, slos = RACKS[preset]
        name, _, strategy = preset.partition(":")
        engine = _ENGINES[preset] = TrafficEngine.from_spec(
            TrafficSpec(spec_text=spec_text, slos=slos,
                        topology=topology_for(name),
                        strategy=strategy or "lemur"),
            registry=MetricsRegistry(),
        )
        rack = engine.rack
        NODES[id(rack)] = {nid: node for cp in engine.placement.chains
                           for nid, node in cp.chain.graph.nodes.items()}
        rack._probe_hop = _checked(rack, rack._probe_hop)
    return engine


def _forget_routes(rack) -> None:
    """Empty the probe memo and the traces, so every flow probes again."""
    for memo in (rack._hop_probes, rack._route_traces, rack._route_roots,
                 rack._hop_plans):
        memo.clear()


def _rack_state(rack) -> dict:
    """Every counter, database and RNG stream a probe could touch."""
    modules = {}
    for name, server in rack.servers.items():
        for module in server.pipeline.modules.values():
            modules[(name, module.name)] = module
    for name, nic in rack.nics.items():
        for index, module in nic._nf_modules.items():
            modules[(name, index)] = module
    if isinstance(rack.tor, PisaHop):
        for nid, module in rack.tor.modules.items():
            modules[("switch", nid)] = module
    state = {
        key: (module.rx_packets, module.tx_packets, module.dropped_packets,
              module.cycles_charged, id(module.database),
              module._rng.getstate())
        for key, module in modules.items()
    }
    for name, server in rack.servers.items():
        state[(name, "emitted")] = [id(p) for p in server.port_out.emitted]
    for name, nic in rack.nics.items():
        state[(name, "runtime")] = (nic.rx, nic.tx, nic.drops,
                                    nic.cycles_charged)
    of = rack.tor
    if isinstance(of, OpenFlowRuntime):
        state["openflow"] = (of.rx, of.tx, of.drops)
        for table in of.tables:
            for rule in table.rules:
                state[("rule", id(rule))] = (rule.packets, rule.bytes)
    return state


def _packet_state(packet: Packet) -> tuple:
    """Bytes, metadata and the parse cache (header fields included)."""
    parsed = packet._parsed
    if parsed is not None:
        parsed = {
            slot: (dict(vars(value)) if hasattr(value, "__dict__")
                   else value)
            for slot, value in parsed.items()
        }
    return packet.data, copy.deepcopy(packet.metadata), parsed


def _assert_same_probe(got: Optional[_HopProbe],
                       want: Optional[_HopProbe]) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (got.survived, got.next_spi, got.next_si, got.pkt_cycles) == (
        want.survived, want.next_spi, want.next_si, want.pkt_cycles)
    if want.template is None:
        assert got.template is None
    else:
        assert got.template.data == want.template.data
        assert got.template.metadata == want.template.metadata
    mine, theirs = got.effect, want.effect
    # modules compare by identity
    assert mine.module_deltas == theirs.module_deltas
    assert mine.rng_modules == theirs.rng_modules
    assert mine.runtime_deltas == theirs.runtime_deltas
    assert [(id(rule), n) for rule, n in mine.rule_hits] == [
        (id(rule), n) for rule, n in theirs.rule_hits]
    assert mine is theirs  # one interned effect class


def _kind(lead: tuple) -> str:
    """The hop kind a probe call's leading arguments name: its device's
    class."""
    return next(kind for kind, (device_class, _oracle) in ORACLES.items()
                if isinstance(lead[0], device_class))


def _checked(rack, batched):
    """``rack``'s batched probe ``batched``, checked call by call against
    the oracle of the hop kind it probes."""

    def probe(*args):
        *lead, templates = args
        kind = _kind(lead)
        oracle = ORACLES[kind][1]
        pristine = [_packet_state(t) for t in templates]
        before = _rack_state(rack)
        got = batched(*lead, templates)
        after = _rack_state(rack)
        # switch NFs are made when a packet first reaches them: a fresh one
        # may appear, with nothing charged
        assert {key: after[key] for key in before} == before
        for key in after.keys() - before.keys():
            assert after[key][:4] == (0, 0, 0, 0), key
        assert [_packet_state(t) for t in templates] == pristine
        want = [oracle(rack, *lead, template) for template in templates]
        assert _rack_state(rack) == after
        assert len(got) == len(templates)
        for mine, theirs in zip(got, want):
            _assert_same_probe(mine, theirs)
        CHECKED[kind] += len(templates)
        return got

    return probe


def _flow(chain, index: int, variant: int, tagged: bool) -> Packet:
    """Flow ``index``'s packet; a nonzero ``variant`` rewrites its payload
    (same 5-tuple, different bytes), and a ``tagged`` one carries a VLAN
    tag, whose header the OpenFlow probe edits in place on its clone."""
    packet = _chain_packet(chain, index)
    if variant:
        packet.payload = bytes([variant]) * len(packet.payload)
    if tagged:
        packet.push_vlan(100 + index % 7)
    return packet


def test_every_platform_probe_is_checked():
    """A plain traffic pass on each rack probes all four hop kinds."""
    for preset in RACKS:
        engine = _engine(preset)
        _forget_routes(engine.rack)
        engine.run(packets_per_chain=256)
    assert all(CHECKED.values()), CHECKED


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(preset=st.sampled_from(sorted(RACKS)), data=st.data())
def test_batched_probes_match_the_oracle(preset, data):
    """Hypothesis over flows and batches: which flows (5-tuple, payload
    variant, VLAN tag), and how many packets of which of them in one
    batch."""
    engine = _engine(preset)
    rack = engine.rack
    _forget_routes(rack)
    for cp in engine.placement.chains:
        flows = data.draw(st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 2),
                      st.booleans()),
            min_size=1, max_size=24, unique=True,
        ), label=f"{cp.name} flows")
        templates = [_flow(cp.chain, *flow) for flow in flows]
        sig = data.draw(st.lists(
            st.integers(0, len(templates) - 1), min_size=1, max_size=96,
        ), label=f"{cp.name} batch")
        rack.run_columns(cp, PacketColumns.for_flows(
            templates, np.asarray(sig, dtype=np.int64)))
