"""A device hop charges its cycle delta straight to its device.

No device hop attributes cycles itself: BESS modules and the SmartNIC
runtime charge ``cycles_consumed`` alone, and
``DeployedRack._device_step`` charges a hop's whole delta to the hop's
device. The oracle below is the step that snapshotted
``metadata.cycles_by_device`` around every hop, with its attribution
helper, kept verbatim (``self`` is the rack) but for reading the hop
off the run's coordinates, and stepping only the hops off the switch.
It runs a server hop as the
generic walk did: ``Pipeline.push_batch`` over the NSH-tagged packets,
``PortOut.drain``, outputs matched to inputs by seq. It runs a SmartNIC hop
as the NSH-tagged ``SmartNICRuntime.process_batch`` did, which attributed
its NIC cycles itself. So it is the old code end to end, NSH push and pop
included, against the live rack's :class:`~repro.bess.pipeline.ServerHop`
and :meth:`~repro.ebpf.nic.SmartNICRuntime.run`. Each chain here
crosses a server twice; the first also crosses a SmartNIC first. Two racks
built alike, one stepping through the oracle, must agree on every output's
bytes, hop records, latency fields and ``cycles_by_device`` (in insertion
order: ``_stamp_latency`` sums it in that order), and on every registry
series and device counter.
"""

import types
from typing import Dict, List, Optional, Tuple

import pytest

from repro.exceptions import DataplaneError
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.net.packet import Packet
from repro.obs import MetricsRegistry
from repro.sim.runtime import _Cohort, _merged, _split
from repro.sim.traffic import TrafficEngine, TrafficSpec

# -- the oracle: the snapshot-every-hop step, verbatim ------------------------


def _device_step(self, cp, group: List[_Cohort],
                 results: Dict[int, Optional[Packet]],
                 hop_records: Dict[int, List[dict]]) -> List[_Cohort]:
    name = cp.name
    _path, hop = self._hop_at[(group[0].spi, group[0].si)]
    device = hop.device
    entering = []
    for cohort in group:
        cohort.excursions += 1
        cohort.switch_passes += 1
        if self._fault_failed or self._fault_loss:
            cohort.packets = self._fault_filter(
                name, device, cohort.packets, results
            )
            if not cohort.packets:
                continue
        entering.append(cohort)
    if not entering:
        return []
    befores = [
        [(p.metadata.cycles_consumed, dict(p.metadata.cycles_by_device))
         for p in cohort.packets]
        for cohort in entering
    ]
    for cohort in entering:
        spi, si = cohort.spi, cohort.si
        for packet in cohort.packets:
            packet.push_nsh(spi, si)
    merged = _merged(entering)
    in_c, out_c, _ = self._dev_counters[device]
    in_c.inc(len(merged))
    if hop.platform == Platform.SERVER.value:
        outs = _run_server_hop_batch(self, device, merged)
        reason = "server_pipeline"
    elif hop.platform == Platform.SMARTNIC.value:
        outs = _run_nic_hop_batch(self, device, merged)
        reason = "nic_program"
    else:
        raise DataplaneError(f"unexpected hop platform {hop.platform}")

    cycle_sink: Dict[str, int] = {}
    moving = []
    for cohort, before, cohort_outs in zip(
        entering, befores, _split(entering, merged, outs)
    ):
        runs: Dict[Tuple[int, int], List[Packet]] = {}
        dropped = 0
        for packet, out, (before_total, before_attr) in zip(
            cohort.packets, cohort_outs, before
        ):
            if out is None:
                results[packet.metadata.seq] = None
                dropped += 1
                continue
            hop_records[out.metadata.seq].append(_attribute_hop(
                self, hop, out, before_total, before_attr, cycle_sink
            ))
            nsh = out.pop_nsh()
            if nsh is None:
                raise DataplaneError(
                    f"packet returned from {device} without NSH"
                )
            runs.setdefault((nsh.spi, nsh.si), []).append(out)
        if dropped:
            self._count_drops(name, device, reason, dropped)
        out_c.inc(len(cohort.packets) - dropped)
        if len(runs) == 1:
            ((cohort.spi, cohort.si), cohort.packets), = runs.items()
            moving.append(cohort)
            continue
        moving.extend(
            _Cohort(packets, spi, si, cohort.excursions,
                    cohort.switch_passes, cohort.budget)
            for (spi, si), packets in runs.items()
        )
    for sink_device, delta in cycle_sink.items():
        self._cycles_counter(sink_device).inc(delta)
    return moving


def _run_server_hop_batch(self, server: str, packets: List[Packet]
                          ) -> List[Optional[Packet]]:
    runtime = self.servers.get(server)
    if runtime is None:
        raise DataplaneError(f"no BESS pipeline deployed on {server}")
    runtime.pipeline.push_batch(packets, entry=runtime.port_inc.name)
    emitted = runtime.port_out.drain()
    by_seq: Dict[int, Packet] = {}
    for out in emitted:
        seq = out.metadata.seq
        if seq in by_seq:
            raise DataplaneError(
                f"{server}: expected one packet out per input, got a "
                f"duplicate for seq {seq}"
            )
        by_seq[seq] = out
    outs = [by_seq.pop(packet.metadata.seq, None) for packet in packets]
    if by_seq:
        raise DataplaneError(
            f"{server}: emitted packets matching no input "
            f"(seqs {sorted(by_seq)})"
        )
    return outs


def _run_nic_hop_batch(self, nic: str, packets: List[Packet]
                       ) -> List[Optional[Packet]]:
    runtime = self.nics.get(nic)
    if runtime is None:
        raise DataplaneError(f"no eBPF program loaded on {nic}")
    return [
        out if action == "tx" else None
        for action, out in _nic_process_batch(runtime, packets)
    ]


def _nic_process_batch(self, packets: List[Packet]) -> List[tuple]:
    """``SmartNICRuntime.process_batch`` as it was (``self`` is the NIC
    runtime; ``XDPAction`` members written as their values)."""
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


def _attribute_hop(self, hop, out: Packet, before_total: int,
                   before_attr: Dict[str, int],
                   cycle_sink: Dict[str, int]) -> dict:
    meta = out.metadata
    total_delta = meta.cycles_consumed - before_total
    attributed_delta = sum(meta.cycles_by_device.values()) - sum(
        before_attr.values()
    )
    unattributed = total_delta - attributed_delta
    if unattributed:
        meta.cycles_by_device[hop.device] = (
            meta.cycles_by_device.get(hop.device, 0) + unattributed
        )
    exec_us = 0.0
    for device, cycles in meta.cycles_by_device.items():
        delta = cycles - before_attr.get(device, 0)
        if delta:
            exec_us += delta / self.device_freq(device) * 1e6
            cycle_sink[device] = cycle_sink.get(device, 0) + delta
    return {
        "device": hop.device, "platform": hop.platform,
        "cycles": total_delta, "exec_us": exec_us,
    }


# -- the racks ---------------------------------------------------------------

#: Table-2 chain 4's body behind a NIC-placeable head: on the SmartNIC rack
#: it runs agilio0, then server0, the switch, server0 again.
NIC_REVISIT = ("chain c: BPF -> FastEncrypt -> Dedup -> ACL -> Monitor -> "
               "Tunnel -> BPF -> [LB -> ACL, LB -> ACL] -> IPv4Fwd")
#: Table-2 chain 4 itself on the paper testbed: server0 twice, no NIC.
CHAIN4 = ("chain chain4: Dedup -> ACL -> Monitor -> Tunnel -> BPF -> "
          "[LB -> Limiter -> ACL, LB -> Limiter -> ACL, "
          "LB -> Limiter -> ACL] -> IPv4Fwd")

#: (spec, SLOs, preset, whether agilio0 runs first)
CASES = {
    "nic-then-server-twice": (NIC_REVISIT, ((1000.0, 20000.0),),
                              "paper-smartnic", True),
    "chain4-server-twice": (CHAIN4, ((300.0, 100000.0),), "paper-testbed",
                            False),
}


def _engine(spec_text, slos, preset):
    return TrafficEngine.from_spec(
        TrafficSpec(spec_text=spec_text, slos=slos,
                    topology=topology_for(preset),
                    flows_per_chain=8, batch_size=16),
        registry=MetricsRegistry(),
    )


def _outcome(packet: Optional[Packet]):
    if packet is None:
        return None
    meta = packet.metadata
    return (packet.data, meta.cycles_consumed,
            list(meta.cycles_by_device.items()), dict(meta.fields))


def _rack_series(engine) -> dict:
    """The rack's own registry series (the deploy's compile-memo and timer
    series differ between a first and a second deploy)."""
    return {kind: [row for row in rows if row[0].startswith("rack.")]
            for kind, rows in engine.rack.obs.dump_state().items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_server_hops_charge_like_the_snapshotting_step(case):
    spec_text, slos, preset, nic_first = CASES[case]
    live = _engine(spec_text, slos, preset)
    oracle = _engine(spec_text, slos, preset)
    # the oracle steps the server and NIC hops; the ToR's are the rack's
    switch_step = oracle.rack._device_step

    def step(self, cp, group, results, hop_records):
        if self._hop_at[(group[0].spi, group[0].si)][1].device \
                == self.topology.switch.name:
            return switch_step(cp, group, results, hop_records)
        return _device_step(self, cp, group, results, hop_records)

    oracle.rack._device_step = types.MethodType(step, oracle.rack)
    (cp,) = live.placement.chains
    (oracle_cp,) = oracle.placement.chains
    flows = live.synthesize_flows(cp)
    oracle_flows = oracle.synthesize_flows(oracle_cp)
    delivered = 0
    for batch in (1, 7, 16, 5):
        picks = [(delivered + i * 3) % len(flows) for i in range(batch)]
        got = live.rack.run(cp, [flows[k].copy() for k in picks])
        want = oracle.rack.run(
            oracle_cp, [oracle_flows[k].copy() for k in picks])
        assert [_outcome(p) for p in got.outputs] \
            == [_outcome(p) for p in want.outputs]
        delivered += batch
        for packet in got.outputs:
            if packet is not None:
                visits = [hop["device"]
                          for hop in packet.metadata.fields["hops"]
                          if hop["platform"] != "pisa"]
                assert (visits[0] == "agilio0") is nic_first
                assert visits.count("server0") >= 2
    assert _rack_series(live) == _rack_series(oracle)
    assert live.rack.device_stats() == oracle.rack.device_stats()
