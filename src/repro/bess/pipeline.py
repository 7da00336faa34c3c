"""Instantiate an executable BESS pipeline from generated IR.

Builds the module graph the meta-compiler's script describes (§A.1):
``PortInc → NSHdecap → SubgroupDemux → [NF chain per subgroup instance] →
SIUpdate → NSHencap → PortOut`` and the per-core scheduler tree, and
:class:`ServerHop`, which runs that graph on a batch visiting only its NF
modules.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bess.module import Module, Pipeline
from repro.bess.modules import make_nf_module
from repro.bess.nsh_modules import (
    NSHDecap,
    NSHEncap,
    PortInc,
    PortOut,
    SIUpdate,
    SubgroupDemux,
)
from repro.bess.scheduler import LeafTask, SchedulerTree
from repro.exceptions import DataplaneError
from repro.metacompiler.bessgen import BessScriptIR
from repro.net.packet import Packet
from repro.profiles.defaults import (
    DEMUX_LB_CYCLES,
    NSH_ENCAP_DECAP_CYCLES,
    ProfileDatabase,
    default_profiles,
)

#: what NSHdecap and NSHencap each charge a packet
_NSH_HALF = NSH_ENCAP_DECAP_CYCLES // 2


def build_bess_pipeline(
    ir: BessScriptIR,
    profiles: Optional[ProfileDatabase] = None,
    seed: object = 0,
    freq_hz: float = 1.7e9,
) -> Tuple[Pipeline, PortInc, PortOut, SchedulerTree]:
    """Build the executable pipeline + scheduler for one server."""
    profiles = profiles or default_profiles()
    pipeline = Pipeline(name=f"bess@{ir.server}")

    port_inc = PortInc(name="port_inc")
    nsh_decap = NSHDecap(name="nsh_decap")
    demux = SubgroupDemux(name="demux")
    nsh_encap = NSHEncap(name="nsh_encap")
    port_out = PortOut(name="port_out")
    for module in (port_inc, nsh_decap, demux, nsh_encap, port_out):
        pipeline.add(module, entry=module is port_inc)
    port_inc.connect(nsh_decap)
    nsh_decap.connect(demux)
    nsh_encap.connect(port_out)

    scheduler = SchedulerTree(freq_hz=freq_hz)

    for sg in ir.subgroups:
        next_map = {
            (entry.spi, entry.si): (entry.next_spi, entry.next_si)
            for entry in sg.entries
        }
        instance_heads = []
        for instance in range(sg.instances):
            prev = None
            head = None
            for spec in sg.modules:
                module = make_nf_module(
                    spec.nf_class,
                    spec.params,
                    name=f"{spec.module_name}_i{instance}",
                    database=profiles,
                    seed=f"{seed}/{ir.server}/{sg.sg_id}/{instance}",
                )
                pipeline.add(module)
                if prev is not None:
                    prev.connect(module)
                else:
                    head = module
                prev = module
            si_update = SIUpdate(
                name=f"si_update_{sg.sg_id.replace('/', '_')}_i{instance}",
                params={"next_map": next_map},
            )
            pipeline.add(si_update)
            if prev is None:
                raise DataplaneError(f"subgroup {sg.sg_id} has no modules")
            prev.connect(si_update)
            si_update.connect(nsh_encap, igate=0)
            instance_heads.append(head)
            core = sg.cores[instance] if instance < len(sg.cores) else 0
            scheduler.assign(
                core,
                LeafTask(
                    name=f"{sg.sg_id}/i{instance}",
                    work_fn=lambda: 0,  # driven by the rack event loop
                ),
                rate_limit_mbps=sg.rate_limit_mbps,
            )

        first, *shared = [(entry.spi, entry.si) for entry in sg.entries]
        gates = demux.register(*first, sg.instances)
        for gate, head in zip(gates, instance_heads):
            demux.connect(head, ogate=gate)
        for spi, si in shared:
            demux.alias(spi, si, first)

    return pipeline, port_inc, port_out, scheduler


def _tally(module: Module, rx: int, tx: int, cycles: int = 0) -> None:
    """Add one batch's counts to a framework module's counters."""
    module.rx_packets += rx
    module.tx_packets += tx
    module.dropped_packets += rx - tx
    module.cycles_charged += cycles


class ServerHop:
    """One pass of a :func:`build_bess_pipeline` graph that visits only
    its subgroup NF modules.

    Every framework module of the graph (PortInc, NSHdecap, SubgroupDemux,
    SIUpdate, NSHencap, PortOut) has a fixed per-packet effect, so the hop
    applies it directly: metadata writes per packet, and each module's
    rx/tx/dropped/cycles as one sum per batch. Each NF module gets one
    ``receive_batch`` call with the packets, in the order,
    :meth:`Pipeline.push_batch` would hand it.

    No NSH bytes move. A packet's ``metadata.spi``/``si`` name the
    coordinates it enters at (what NSHdecap reads off its tag); leaving,
    they hold the next hop's (what NSHencap writes into it), and the bytes
    are those the pipeline's PortOut would emit, less the tag.
    """

    def __init__(self, pipeline: Pipeline):
        self.pipeline = pipeline
        self.name = pipeline.name
        modules = pipeline.modules
        self.port_inc = modules["port_inc"]
        self.nsh_decap = modules["nsh_decap"]
        self.demux = modules["demux"]
        self.nsh_encap = modules["nsh_encap"]
        self.port_out = modules["port_out"]
        self.port = int(self.port_inc.params.get("port", 0))
        #: each module's position in the pipeline (a probe's deltas are
        #: listed in this order)
        self.rank = {name: r for r, name in enumerate(modules)}
        #: demux gate -> (the instance's NF modules, its SIUpdate, the
        #: SIUpdate's next_map, whether the gate's subgroup is replicated)
        self.instances: Dict[int, tuple] = {}
        demux = self.demux
        for base_gate, count in demux._routes.values():
            for gate in range(base_gate, base_gate + count):
                if gate in self.instances:
                    continue  # a shared subgroup's alias
                nfs = []
                module = demux.downstream(gate)
                while not isinstance(module, SIUpdate):
                    nfs.append(module)
                    module = module.downstream(0)
                self.instances[gate] = (tuple(nfs), module,
                                        module.params["next_map"], count > 1)

    def nf_modules(self, spi: int, si: int) -> List[Module]:
        """The NF modules a packet entering at (spi, si) may visit."""
        route = self.demux._routes.get((spi, si))
        if route is None:
            return []
        base_gate, count = route
        return [module for gate in range(base_gate, base_gate + count)
                for module in self.instances[gate][0]]

    def run(self, packets: List[Packet]) -> List[Optional[Packet]]:
        """:meth:`push` with one entry per input, in input order: the
        packet that left for it, or ``None`` where it was dropped. Inputs
        carry distinct ``metadata.seq``, which outputs inherit."""
        emitted = self.push(packets)
        by_seq = {out.metadata.seq: out for out in emitted}
        if len(by_seq) < len(emitted):
            seqs = [out.metadata.seq for out in emitted]
            raise DataplaneError(
                f"{self.name}: expected one packet out per input, got a "
                "duplicate for seq "
                f"{next(seq for seq in seqs if seqs.count(seq) > 1)}"
            )
        outs = [by_seq.pop(packet.metadata.seq, None) for packet in packets]
        if by_seq:
            raise DataplaneError(
                f"{self.name}: emitted packets matching no input "
                f"(seqs {sorted(by_seq)})"
            )
        return outs

    def push(self, packets: List[Packet],
             charged: Optional[Dict[int, Dict[Module, List[int]]]] = None
             ) -> List[Packet]:
        """Run ``packets`` through the server; returns the packets PortOut
        would emit, in its order.

        With ``charged`` (probe mode) nothing is charged: NF modules are
        visited through :meth:`Module.probe_batch`, framework counters stay
        put, and ``charged[seq]`` gains, for each module an input's packets
        reach, the ``[rx, tx, dropped, cycles]`` its counters would have
        (inputs carry distinct ``metadata.seq``, which outputs inherit).
        """
        port, routes, half = self.port, self.demux._routes, _NSH_HALF
        if charged is None:
            visit = _receive_batch
        else:
            note = _noter(charged)
            visit = _probe_visit(note)
            entered = ((self.port_inc, 1, 1, 0, 0),
                       (self.nsh_decap, 1, 1, 0, half))
        groups: Dict[int, List[Packet]] = {}
        flagged = missed = balanced = 0
        for packet in packets:
            meta = packet.metadata
            meta.ingress_port = port
            if meta.drop_flag:  # PortInc drops what arrives flagged
                flagged += 1
                if charged is not None:
                    note(packet, ((self.port_inc, 1, 0, 1, 0),))
                continue
            meta.cycles_consumed += half
            route = routes.get((meta.spi, meta.si))
            if route is None:
                meta.drop_flag = True
                missed += 1
                if charged is not None:
                    note(packet, (*entered, (self.demux, 1, 0, 1, 0)))
                continue
            gate, count = route
            if count > 1:
                meta.cycles_consumed += DEMUX_LB_CYCLES
                balanced += 1
                gate += packet.flow_digest() % count
            group = groups.get(gate)
            if group is None:
                groups[gate] = [packet]
            else:
                group.append(packet)
        if charged is not None:
            for gate, group in groups.items():
                lb = DEMUX_LB_CYCLES if self.instances[gate][3] else 0
                for packet in group:
                    note(packet, (*entered, (self.demux, 1, 1, 0, lb)))
        emitted: List[Packet] = []
        for gate, group in groups.items():
            nfs, si_update, next_map, _replicated = self.instances[gate]
            for module in nfs:
                # a subgroup's modules are wired gate 0 to gate 0: an
                # output on any other gate leaves the pipeline there
                group = [pkt for ogate, pkt in visit(module, group)
                         if not ogate]
                if not group:
                    break
            else:
                passed = len(emitted)
                for packet in group:
                    meta = packet.metadata
                    nxt = next_map.get((meta.spi, meta.si))
                    if nxt is None:
                        meta.drop_flag = True
                        continue
                    meta.spi, meta.si = nxt
                    meta.cycles_consumed += half
                    emitted.append(packet)
                if charged is None:
                    _tally(si_update, len(group), len(emitted) - passed)
                    continue
                left = ((si_update, 1, 1, 0, 0),
                        (self.nsh_encap, 1, 1, 0, half),
                        (self.port_out, 1, 1, 0, 0))
                for packet in group:
                    note(packet, ((si_update, 1, 0, 1, 0),)
                         if packet.metadata.drop_flag else left)
        if charged is None:
            n, out = len(packets), len(emitted)
            inside = n - flagged
            _tally(self.port_inc, n, inside)
            _tally(self.nsh_decap, inside, inside, half * inside)
            _tally(self.demux, inside, inside - missed,
                   DEMUX_LB_CYCLES * balanced)
            _tally(self.nsh_encap, out, out, half * out)
            _tally(self.port_out, out, out)
        return emitted


def _receive_batch(module: Module, packets: List[Packet]):
    return module.receive_batch(packets)


def _noter(charged: Dict[int, Dict[Module, List[int]]]):
    """Probe-mode bookkeeping: ``note(packet, visits)`` adds each
    ``(module, rx, tx, dropped, cycles)`` visit to the packet's input."""
    def note(packet: Packet, visits) -> None:
        mine = charged[packet.metadata.seq]
        for module, *counts in visits:
            total = mine.get(module)
            if total is None:
                mine[module] = counts
            else:
                for i, count in enumerate(counts):
                    total[i] += count
    return note


def _probe_visit(note):
    """A probe-mode NF visit: :meth:`Module.probe_batch`, each packet's
    counts noted against its input."""
    def visit(module: Module, packets: List[Packet]):
        live = []
        for packet, (outputs, counts) in zip(
            packets, module.probe_batch(packets)
        ):
            note(packet, ((module, *counts),))
            live += outputs
        return live
    return visit
