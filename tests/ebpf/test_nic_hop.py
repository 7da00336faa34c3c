"""The SmartNIC hop against the NSH-tagged batch it replaced.

:meth:`SmartNICRuntime.run` enters each packet at its ``metadata.spi``/``si``
and leaves the next hop's coordinates there. The oracle below is the
runtime's previous ``process_batch``, kept verbatim (``self`` is the
runtime; ``XDPAction`` members written as their values): it read the
coordinates off an NSH tag, pushed the next tag, and attributed its NIC
cycles in ``cycles_by_device`` itself. Two runtimes loaded alike run the
same drawn batches, one each way, with the oracle's outputs untagged as the
rack untagged them. Batches mix routed coordinates, coordinates the program
has no route for or no section behind, an ACL section that drops some
flows, and inputs that arrive with ``drop_flag`` set. Both must agree on
every output's bytes and metadata (bar the attribution dict, which only
the rack writes now), and on every runtime and module counter and module
RNG stream. A second property holds probe mode to the scalar hop.
"""

import dataclasses
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.nic import SmartNICRuntime
from repro.ebpf.program import EBPFProgram, EBPFSection
from repro.exceptions import DataplaneError
from repro.hw.smartnic import SmartNIC
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles

# -- the oracle: process_batch, verbatim --------------------------------------


def _process_batch(self, packets: List[Packet]) -> List[tuple]:
    if self.program is None:
        raise DataplaneError(f"{self.nic.name}: no program loaded")
    self.rx += len(packets)
    nic_name = self.nic.name
    route_cache: Dict[Tuple[int, int], Optional[tuple]] = {}
    results: List[tuple] = []
    drops = 0
    tx = 0
    cycles_total = 0
    for packet in packets:
        nsh = packet.pop_nsh()
        if nsh is None:
            drops += 1
            results.append(("drop", packet))
            continue
        key = (nsh.spi, nsh.si)
        entry = route_cache.get(key, False)
        if entry is False:
            entry = route_cache[key] = self.route_entry(*key)
        if entry is None:
            drops += 1
            results.append(("drop", packet))
            continue
        module, next_spi, next_si, nic_cycles = entry
        # inlined Module.receive: NIC modules never carry a profile
        # database (account() is a no-op), so only the counters and the
        # drop-flag filtering need replicating
        module.rx_packets += 1
        outputs = module.process(packet)
        if len(outputs) == 1 and not outputs[0][1].metadata.drop_flag:
            module.tx_packets += 1
        else:
            emitted = len(outputs)
            outputs = [
                (gate, pkt) for gate, pkt in outputs
                if not pkt.metadata.drop_flag
            ]
            module.dropped_packets += (
                emitted - len(outputs) if emitted else 1
            )
            module.tx_packets += len(outputs)
        if not outputs:
            drops += 1
            results.append(("drop", packet))
            continue
        _gate, out = outputs[0]
        if nic_cycles:
            meta = out.metadata
            meta.cycles_consumed += nic_cycles
            meta.cycles_by_device[nic_name] = (
                meta.cycles_by_device.get(nic_name, 0) + nic_cycles
            )
            cycles_total += nic_cycles
        out.push_nsh(next_spi, next_si)
        tx += 1
        results.append(("tx", out))
    self.drops += drops
    self.tx += tx
    self.cycles_charged += cycles_total
    return results


# -- the program ---------------------------------------------------------------

#: NF sections after the dispatcher: every one vector-safe; the ACL drops
#: flows from 10.1.0.0/30
SECTIONS = [
    ("FastEncrypt", {}),
    ("ACL", {"rules": [{"src_ip": "10.1.0.0/30", "drop": True}]}),
    ("IPv4Fwd", {}),
    ("BPF", {}),
]

#: (spi, si) -> (section index, next spi, next si); section 9 has no module
ROUTES = {
    (1, 255): (0, 1, 254),
    (1, 254): (1, 1, 253),
    (1, 253): (2, 1, 252),
    (2, 255): (3, 2, 254),
    (2, 254): (9, 2, 253),
}

#: coordinates a batch draws from: every route, and two with none
COORDS = [*ROUTES, (3, 255), (1, 1)]


def _runtime() -> SmartNICRuntime:
    program = EBPFProgram(name="hop")
    program.sections.append(EBPFSection("dispatcher", None, 50, 32))
    for index, (nf_class, _params) in enumerate(SECTIONS):
        program.sections.append(EBPFSection(f"nf_{index}", nf_class, 100, 64))
    for coords, (section, next_spi, next_si) in ROUTES.items():
        program.demux[coords] = (section, next_spi, next_si, False)
    runtime = SmartNICRuntime(SmartNIC(host_server="server0"),
                              default_profiles(), seed=5)
    runtime.load(program, SECTIONS)
    return runtime


def _packet(flow: int) -> Packet:
    """Flow ``flow``'s packet: flows 0-7 come from the ACL's dropped /30
    and a few neighbours, each with its own payload."""
    return Packet.build(src_ip=f"10.1.0.{flow % 8}", src_port=1000 + flow,
                        payload=b"flow-%d" % flow)


def _state(runtime: SmartNICRuntime) -> tuple:
    return (
        (runtime.rx, runtime.tx, runtime.drops, runtime.cycles_charged),
        [(m.rx_packets, m.tx_packets, m.dropped_packets, m.cycles_charged,
          m._rng.getstate())
         for m in runtime._nf_modules.values()],
    )


def _counts(runtime: SmartNICRuntime) -> tuple:
    """Runtime counters, then each module's, by section."""
    return ((runtime.rx, runtime.tx, runtime.drops, runtime.cycles_charged),
            {index: (m.rx_packets, m.tx_packets, m.dropped_packets,
                     m.cycles_charged)
             for index, m in runtime._nf_modules.items()})


def _outcome(packet: Optional[Packet]):
    if packet is None:
        return None
    meta = dataclasses.replace(packet.metadata, cycles_by_device={})
    return packet.data, meta


inputs = st.tuples(st.sampled_from(COORDS), st.integers(0, 11),
                   st.booleans())
batches = st.lists(st.lists(inputs, min_size=1, max_size=24),
                   min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(batches=batches)
def test_run_matches_the_nsh_tagged_batch(batches):
    live, oracle = _runtime(), _runtime()
    for batch in batches:
        entering, tagged = [], []
        for (spi, si), flow, flagged in batch:
            packet = _packet(flow)
            packet.metadata.spi, packet.metadata.si = spi, si
            packet.metadata.drop_flag = flagged
            entering.append(packet)
            packet = _packet(flow)
            packet.push_nsh(spi, si)
            packet.metadata.drop_flag = flagged
            tagged.append(packet)
        got = live.run(entering)
        want = []
        for action, out in _process_batch(oracle, tagged):
            if action == "tx":
                assert out.pop_nsh() is not None  # the rack's untagging
                want.append(out)
            else:
                want.append(None)
        assert [_outcome(p) for p in got] == [_outcome(p) for p in want]
        assert _state(live) == _state(oracle)
    assert live.rx == sum(map(len, batches))


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(inputs, min_size=1, max_size=24),
       warm=st.lists(inputs, max_size=8))
def test_probe_mode_notes_what_a_scalar_run_charges(batch, warm):
    runtime = _runtime()

    def packets(drawn):
        made = []
        for (spi, si), flow, flagged in drawn:
            packet = _packet(flow)
            packet.metadata.spi, packet.metadata.si = spi, si
            packet.metadata.drop_flag = flagged
            made.append(packet)
        return made

    runtime.run(packets(warm))
    before = _state(runtime)
    charged: List[tuple] = []
    probed = runtime.run(packets(batch), charged)
    assert _state(runtime) == before  # probe mode charges nothing
    assert len(charged) == len(probed) == len(batch)
    modules = {m: index for index, m in runtime._nf_modules.items()}
    for packet, out, (module_deltas, runtime_deltas) in zip(
        packets(batch), probed, charged
    ):
        (rt_before, mods_before) = _counts(runtime)
        (scalar,) = runtime.run([packet])
        (rt_after, mods_after) = _counts(runtime)
        assert _outcome(out) == _outcome(scalar)
        assert runtime_deltas == tuple(
            a - b for a, b in zip(rt_after, rt_before))
        moved = {
            index: tuple(a - b for a, b in zip(mods_after[index],
                                               mods_before[index]))
            for index in mods_after if mods_after[index] != mods_before[index]
        }
        assert {modules[m]: tuple(counts)
                for m, *counts in module_deltas} == moved
