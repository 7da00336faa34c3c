"""The batched hop probes against the one-signature probes they replaced.

A hop probe runs a flow template's clone through the platform runtime and
records what replaying it costs (``repro.sim.runtime._HopProbe``). The rack
probes every template a hop's memo misses in one call per platform; the
four functions below are the one-signature probes of the previous design,
kept verbatim (``self`` is the rack) as the oracle; the SmartNIC one
enters its clone at metadata coordinates, as the runtime's scalar ``run``
now takes them, where it pushed an NSH tag. Each batched call made
while columns run is checked against them on the same rack state: equal
``_HopProbe`` fields and effect deltas, the same interned effect class,
templates left as they were, and every module counter, profile database
and RNG stream — and every runtime and flow-rule counter — unchanged.
"""

import copy
from typing import List, Optional

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bess.pipeline import ServerHop
from repro.ebpf.nic import SmartNICRuntime
from repro.hw.spec import topology_for
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.sim.columns import PacketColumns
from repro.sim.runtime import (
    _freeze_template,
    _HopProbe,
    _chain_packet,
)
from repro.core.placement import ChainPlacement
from repro.sim.traffic import TrafficEngine, TrafficSpec

# -- the oracle: the one-signature probes, verbatim --------------------------


def _probe_of_sig(self, spi: int, si: int,
                  template: Packet) -> Optional[_HopProbe]:
    of = self.of_runtime
    vid = self._of_vid[(spi, si)]
    clone = template.copy()
    if clone.vlan is None:
        clone.push_vlan(vid)
    else:
        clone.vlan.vid = vid
        clone.commit()
    snap = (of.rx, of.tx, of.drops)
    trace: List[tuple] = []
    of._match_trace = trace
    try:
        of_result = of.process(clone)
    finally:
        of._match_trace = None
    runtime_deltas = (
        of.rx - snap[0], of.tx - snap[1], of.drops - snap[2], 0
    )
    of.rx, of.tx, of.drops = snap
    for rule, match_len in trace:
        rule.packets -= 1
        rule.bytes -= match_len
    if of_result.dropped:
        probe = _HopProbe(survived=False)
    else:
        out = of_result.packet
        out.pop_vlan()
        probe = _HopProbe(survived=True, template=_freeze_template(out))
    return self._with_effect(probe, runtime_deltas=runtime_deltas,
                             of_rules=trace)

def _probe_pisa_sig(self, cp: ChainPlacement, hop,
                    template: Packet) -> Optional[_HopProbe]:
    modules, snaps = [], []
    live = [template.copy()]
    for nid in hop.node_ids:
        if not live:
            break
        module = self._switch_module(cp, nid)
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
        pkt_cycles = out.metadata.cycles_consumed
        probe = _HopProbe(survived=True,
                          template=_freeze_template(out),
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
        probe = _HopProbe(survived=False)
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
        probe = _HopProbe(survived=False)
    return self._with_effect(probe, module_deltas,
                             runtime_deltas=runtime_deltas)


ORACLES = {
    "_probe_of": _probe_of_sig,
    "_probe_pisa": _probe_pisa_sig,
    "_probe_server": _probe_server_sig,
    "_probe_nic": _probe_nic_sig,
}

_DROP = "ACL(rules=[{'src_ip': '10.1.0.0/30', 'drop': True}])"

#: preset -> (spec, per-chain (t_min, t_max) Mbps): vector-safe hops on
#: every platform the preset has, ACLs that drop some flows, replicated
#: server subgroups (one route class per demux instance), branches, and a
#: stateful NAT hop that no probe may enter
RACKS = {
    "paper-smartnic": (
        "chain a: BPF -> FastEncrypt -> IPv4Fwd\n"
        "chain b: ACL -> Encrypt -> IPv4Fwd\n",
        ((1000.0, 39000.0),) * 2,
    ),
    "paper-testbed": (
        f"chain m: Encrypt -> {_DROP} -> IPv4Fwd\n"
        f"chain n: BPF -> [Encrypt -> {_DROP} -> IPv4Fwd, "
        "Tunnel -> IPv4Fwd]\n",
        ((3000.0, 30000.0),) * 2,
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
}

#: probe method -> templates checked against the oracle, over the module
CHECKED = {name: 0 for name in ORACLES}

_ENGINES = {}


def _engine(preset: str) -> TrafficEngine:
    """``preset``'s rack, deployed once, its probes cross-checked."""
    engine = _ENGINES.get(preset)
    if engine is None:
        spec_text, slos = RACKS[preset]
        engine = _ENGINES[preset] = TrafficEngine.from_spec(
            TrafficSpec(spec_text=spec_text, slos=slos,
                        topology=topology_for(preset)),
            registry=MetricsRegistry(),
        )
        for name, oracle in ORACLES.items():
            setattr(engine.rack, name, _checked(engine.rack, name, oracle))
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
    for nid, module in rack._switch_modules.items():
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
    of = rack.of_runtime
    if of is not None:
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
    assert [(id(rule), n) for rule, n in mine.of_rules] == [
        (id(rule), n) for rule, n in theirs.of_rules]
    assert mine is theirs  # one interned effect class


def _checked(rack, name, oracle):
    """``rack``'s batched probe ``name``, checked call by call."""
    batched = getattr(rack, name)

    def probe(*args):
        *lead, templates = args
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
        CHECKED[name] += len(templates)
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
    """A plain traffic pass on each rack reaches all four probes."""
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
