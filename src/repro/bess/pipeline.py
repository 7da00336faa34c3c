"""Instantiate an executable BESS pipeline from generated IR.

Builds the module graph the meta-compiler's script describes (§A.1):
``PortInc → NSHdecap → SubgroupDemux → [NF chain per subgroup instance] →
SIUpdate → NSHencap → PortOut`` and the per-core scheduler tree, and
:class:`ServerHop`, which runs that graph on a batch visiting only its NF
modules, and :class:`PisaHop`, which runs the PISA ToR's NFs the same way.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter, is_
from typing import Dict, List, Optional, Tuple

from repro.bess.module import Module, Pipeline
from repro.bess.modules import MODULE_CLASSES, make_nf_module
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

    def vector_safe(self, spi: int, si: int) -> bool:
        """May the columnar loop probe the hop at (spi, si)? Only where
        every NF module a packet entering there may visit is vector-safe
        (the framework modules all are): decided from the wiring, before
        any probe, since even one clone through an unsafe module (say NAT)
        would mutate its state."""
        route = self.demux._routes.get((spi, si))
        if route is None:
            return True
        base_gate, count = route
        return all(module.vector_safe
                   for gate in range(base_gate, base_gate + count)
                   for module in self.instances[gate][0])

    def run(self, packets: List[Packet],
            charged: Optional[List[tuple]] = None
            ) -> List[Optional[Packet]]:
        """Run ``packets`` through the server, each entering at its
        ``metadata.spi``/``si``; one entry per input, in input order: the
        packet PortOut would emit for it, the next hop's coordinates in its
        metadata, or ``None`` where it was dropped. Inputs carry distinct
        ``metadata.seq``, which outputs inherit.

        With ``charged`` (probe mode) nothing is charged: NF modules are
        visited through :meth:`Module.probe_batch`, framework counters stay
        put, and ``charged`` gains, per input, ``(module deltas, (), ())``:
        each module its packets reach, in pipeline order, with the
        ``(module, rx, tx, dropped, cycles)`` its counters would gain (a
        server hop has no runtime counters and no rule table).
        """
        port, routes, half = self.port, self.demux._routes, _NSH_HALF
        index = {packet.metadata.seq: i for i, packet in enumerate(packets)}
        if charged is None:
            visit = _receive_batch
        else:
            noted: List[Dict[Module, List[int]]] = [{} for _ in packets]

            def note(packet: Packet, visits) -> None:
                mine = noted[index[packet.metadata.seq]]
                for module, *counts in visits:
                    total = mine.get(module)
                    if total is None:
                        mine[module] = counts
                    else:
                        for i, count in enumerate(counts):
                            total[i] += count

            def visit(module: Module, group: List[Packet]):
                live = []
                for packet, (outputs, counts) in zip(
                    group, module.probe_batch(group)
                ):
                    note(packet, ((module, *counts),))
                    live += outputs
                return live

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
        else:
            rank = self.rank
            for mine in noted:
                charged.append((tuple(sorted(
                    ((module, *counts) for module, counts in mine.items()),
                    key=lambda entry: rank[entry[0].name],
                )), (), ()))
        outs: List[Optional[Packet]] = [None] * len(packets)
        strays = []
        for out in emitted:
            seq = out.metadata.seq
            i = index.get(seq)
            if i is None:
                strays.append(seq)
            elif outs[i] is not None:
                raise DataplaneError(
                    f"{self.name}: expected one packet out per input, got "
                    f"a duplicate for seq {seq}"
                )
            else:
                outs[i] = out
        if strays:
            raise DataplaneError(
                f"{self.name}: emitted packets matching no input "
                f"(seqs {sorted(strays)})"
            )
        return outs


def _receive_batch(module: Module, packets: List[Packet]):
    return module.receive_batch(packets)


def _one_out_each(module: Module, batch: List[Packet],
                  emitted: List[Packet]) -> List[Optional[Packet]]:
    """``module``'s output for each packet of ``batch`` (None: dropped),
    matched by seq; more than one for a packet is an error."""
    if len(emitted) == len(batch) and all(map(is_, emitted, batch)):
        return batch
    by_seq: Dict[int, Packet] = {}
    for out in emitted:
        seq = out.metadata.seq
        if seq in by_seq:
            raise DataplaneError(
                f"{module.name}: expected one packet out per input, got a "
                f"duplicate for seq {seq}")
        by_seq[seq] = out
    return [by_seq.get(packet.metadata.seq) for packet in batch]


_coords_of = attrgetter("metadata.spi", "metadata.si")


class PisaHop:
    """The PISA ToR's switch-placed NFs: the unified P4 program runs all
    of a hop's NFs in one pipeline pass (§4, App. A), so a switch hop is
    one :meth:`run` call, like a server's.

    The rack adds each route from the chain graph when it first plans its
    entry; a route ends at the hop's end or just before a merge node,
    where the rack enters the hop again. An NF module is made from
    ``profiles`` when a packet first reaches it, then left with no cost
    database: the pipeline runs at line rate, so it transforms packets
    but charges no cycles.
    """

    def __init__(self, profiles: ProfileDatabase, seed: object):
        self.profiles = profiles
        self.seed = seed
        #: node id -> its NF module
        self.modules: Dict[str, Module] = {}
        #: (spi, si) -> (graph nodes crossed, next (spi, si))
        self.routes: Dict[Tuple[int, int], tuple] = {}

    def vector_safe(self, spi: int, si: int) -> bool:
        """May the columnar loop probe the route at (spi, si)? Read off
        the NF classes: no module is made before a packet reaches it."""
        return all(getattr(MODULE_CLASSES.get(node.nf_class), "vector_safe",
                           False) for node in self.routes[(spi, si)][0])

    def _module(self, node) -> Module:
        module = self.modules.get(node.node_id)
        if module is None:
            module = self.modules[node.node_id] = make_nf_module(
                node.nf_class, node.params, name=f"tor/{node.node_id}",
                database=self.profiles, seed=f"{self.seed}/tor")
            module.database = None
        return module

    def run(self, packets: List[Packet],
            charged: Optional[List[tuple]] = None
            ) -> List[Optional[Packet]]:
        """Run ``packets`` through the switch, each entering at its
        ``metadata.spi``/``si``; one entry per input, in input order: the
        packet, its route's next coordinates in its metadata, or ``None``
        where an NF dropped it. Inputs carry distinct ``metadata.seq``.

        Modules are visited in graph order, one ``receive_batch`` each
        with every packet that reaches them, in input order: a node is
        the ``k``-th of every route that crosses it. With ``charged``
        (probe mode) ``probe_batch`` runs instead and nothing is charged:
        ``charged`` gains, per input, ``(module deltas, (), ())``, the
        ``(module, rx, tx, dropped, cycles)`` of each module reached.
        """
        if charged is not None:
            noted: List[list] = [[] for _ in packets]
        # what each input is now (None once dropped)
        live: List[Optional[Packet]] = list(packets)
        # (nodes, next coordinates, the inputs on the route in input order)
        coords = list(map(_coords_of, packets))
        walks = [(*self.routes[key], list(index)) for key, index in groupby(
            sorted(range(len(packets)), key=coords.__getitem__),
            coords.__getitem__)]
        depth = 0
        changed = False  # has a module dropped or replaced an input?
        while walks:
            at: Dict[str, list] = {}
            for walk in walks:
                at.setdefault(walk[0][depth].node_id, []).append(walk)
            for group in at.values():
                module = self._module(group[0][0][depth])
                index = group[0][2] if len(group) == 1 else sorted(
                    chain.from_iterable(walk[2] for walk in group))
                batch = list(map(live.__getitem__, index))
                if charged is None:
                    results = _one_out_each(module, batch, [
                        out for _gate, out in module.receive_batch(batch)])
                else:
                    results = []
                    for i, packet, (emitted, counts) in zip(
                        index, batch, module.probe_batch(batch)
                    ):
                        noted[i].append((module, *counts))
                        results += _one_out_each(
                            module, [packet], [out for _gate, out in emitted])
                if results is not batch:
                    changed = True
                    for i, out in zip(index, results):
                        live[i] = out
            depth += 1
            went_on = []
            for nodes, nxt, index in walks:
                if changed:
                    index = [i for i in index if live[i] is not None]
                if depth < len(nodes):
                    if index:
                        went_on.append((nodes, nxt, index))
                    continue
                for i in index:
                    meta = live[i].metadata
                    meta.spi, meta.si = nxt
            walks = went_on
        if charged is not None:
            charged.extend((tuple(deltas), (), ()) for deltas in noted)
        return live
