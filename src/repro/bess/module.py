"""Module framework: the BESS dataflow abstraction.

Modules process packets and emit them on output gates; gates connect to
downstream modules' input gates. A :class:`Pipeline` owns the module graph
and pushes packets through it (run-to-completion, as BESS does within one
core's schedule slot).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import DataplaneError
from repro.net.packet import Packet
from repro.profiles.defaults import NFProfile, ProfileDatabase


@dataclass
class PacketBatch:
    """A batch of packets (BESS processes packets in batches)."""

    packets: List[Packet] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)


def _sift(outputs, exits: bool) -> Tuple[List[Tuple[int, Packet]], int, int]:
    """The live ``(ogate, packet)`` outputs of one :meth:`Module.process`
    call, and what :meth:`Module.receive` counts tx and dropped for it: a
    flagged output is a drop, and so is no output at all unless the
    module ``exits`` (it emitted the packet)."""
    if not outputs:
        return [], int(exits), int(not exits)
    live = [gate_pkt for gate_pkt in outputs
            if not gate_pkt[1].metadata.drop_flag]
    return live, len(live), len(outputs) - len(live)


class Module:
    """Base dataflow module.

    Subclasses implement :meth:`process`, returning ``(ogate, packet)``
    pairs (an empty list drops the packet). Cycle accounting happens in
    :meth:`account`: each processed packet is charged the module's profiled
    cost, sampled within the profile's variance band so run-to-run wobble
    matches Table 4.
    """

    nf_class: Optional[str] = None

    #: Whether the columnar dataplane may *probe* this module: run one
    #: representative clone through it and replay the observed effect across
    #: a whole column of byte-identical packets. Safe only when
    #: :meth:`process` is replayable — identical input bytes/metadata always
    #: produce identical output, and module state depends on the set of
    #: distinct inputs seen, never on the call count (so stateful NFs like
    #: NAT/LB/Monitor and per-packet counters like UrlFilter stay False and
    #: take the scalar fallback).
    vector_safe: bool = False

    #: Whether :meth:`process` returning no output means the packet left
    #: the pipeline here (``PortOut``): counted tx, not dropped.
    exits: bool = False

    def __init__(
        self,
        name: str,
        params: Optional[dict] = None,
        database: Optional[ProfileDatabase] = None,
        numa_same: bool = False,
        seed: object = 0,
    ):
        self.name = name
        self.params = params or {}
        self.database = database
        self.numa_same = numa_same
        self._rng = random.Random(f"{seed}/{name}")
        self._ogates: Dict[int, Tuple["Module", int]] = {}
        self.rx_packets = 0
        self.tx_packets = 0
        self.dropped_packets = 0
        self.cycles_charged = 0
        #: Memoized (database, (low, worst)) sampling bounds — the profiled
        #: cost is a pure function of (nf_class, params, numa_same), so it is
        #: resolved once and reused for every packet.
        self._cost_cache: Optional[Tuple[ProfileDatabase, Tuple[float, float]]] = None

    def __getstate__(self) -> dict:
        # the Mersenne state is 625 words: packed bytes, not 625 pickled
        # ints for each of a rack's hundred-odd modules
        state = self.__dict__.copy()
        version, words, gauss_next = self._rng.getstate()
        state["_rng"] = (version, array("I", words).tobytes(), gauss_next)
        return state

    def __setstate__(self, state: dict) -> None:
        version, packed, gauss_next = state.pop("_rng")
        self.__dict__.update(state)
        self._rng = random.Random(0)  # any seed: the state is replaced
        self._rng.setstate((version, tuple(array("I", packed)), gauss_next))

    # -- wiring -------------------------------------------------------------

    def connect(self, downstream: "Module", ogate: int = 0, igate: int = 0
                ) -> "Module":
        """Wire an output gate to a downstream module; returns downstream
        so calls chain like a BESS script (a -> b -> c)."""
        if ogate in self._ogates:
            raise DataplaneError(
                f"{self.name}: output gate {ogate} already connected"
            )
        self._ogates[ogate] = (downstream, igate)
        return downstream

    def downstream(self, ogate: int = 0) -> Optional["Module"]:
        entry = self._ogates.get(ogate)
        return entry[0] if entry else None

    # -- processing -----------------------------------------------------------

    def process(self, packet: Packet) -> List[Tuple[int, Packet]]:
        """Transform one packet; default is a pass-through on gate 0."""
        return [(0, packet)]

    def _cost_bounds(self) -> Tuple[float, float]:
        """The (low, worst) uniform-sampling band for this module's cost."""
        cache = self._cost_cache
        if cache is not None and cache[0] is self.database:
            return cache[1]
        profile = self.database.get(self.nf_class)
        worst = profile.cost(self.params, numa_same=self.numa_same)
        mean = worst / (1.0 + profile.variance)
        bounds = (mean * (1 - profile.variance), worst)
        self._cost_cache = (self.database, bounds)
        return bounds

    def account(self, packet: Packet, scale: float = 1.0) -> None:
        """Charge this module's per-packet cycle cost to the packet."""
        if self.database is None or self.nf_class is None:
            return
        low, worst = self._cost_bounds()
        sampled = self._rng.uniform(low, worst)
        charged = int(sampled * scale)
        packet.metadata.cycles_consumed += charged
        self.cycles_charged += charged

    def receive(self, packet: Packet) -> List[Tuple[int, Packet]]:
        """Bookkeeping wrapper around :meth:`process`."""
        self.rx_packets += 1
        self.account(packet)
        live, tx, dropped = _sift(self.process(packet), self.exits)
        self.tx_packets += tx
        self.dropped_packets += dropped
        return live

    def receive_batch(self, packets: List[Packet]) -> List[Tuple[int, Packet]]:
        """Batched :meth:`receive` with per-batch aggregated bookkeeping.

        Behaviourally identical to calling :meth:`receive` on each packet in
        order: cycle accounting stays interleaved with processing per packet
        (stateful modules like Dedup scale their charge by state that the
        previous packet just updated), so the module's RNG stream and state
        evolve exactly as in the serial path. Live outputs are sifted from
        drops in the same loop.
        """
        self.rx_packets += len(packets)
        account = (self.account if self.database is not None
                   and self.nf_class is not None else None)
        process = self.process
        live: List[Tuple[int, Packet]] = []
        silent = 0
        dropped = 0
        for packet in packets:
            if account is not None:
                account(packet)
            outputs = process(packet)
            if not outputs:
                silent += 1
                continue
            for gate_pkt in outputs:
                if gate_pkt[1].metadata.drop_flag:
                    dropped += 1
                else:
                    live.append(gate_pkt)
        emitted = silent if self.exits else 0
        self.tx_packets += len(live) + emitted
        self.dropped_packets += dropped + silent - emitted
        return live

    def probe_batch(self, packets: List[Packet]
                    ) -> List[Tuple[List[Tuple[int, Packet]], Tuple[int, ...]]]:
        """:meth:`receive_batch` with its bookkeeping returned instead of
        charged, packet by packet: each packet's live ``(ogate, packet)``
        outputs and the ``(rx, tx, dropped, cycles)`` it would add to the
        module's counters.

        Nothing is accounted, so the RNG stream does not move; the cycles
        :meth:`process` charges itself (NSH encap/decap, demux LB) are read
        off and taken back. The columnar dataplane's hop probes run on it.
        """
        before = self.cycles_charged
        process = self.process
        exits = self.exits
        results = []
        for packet in packets:
            spent = self.cycles_charged
            live, tx, dropped = _sift(process(packet), exits)
            results.append(
                (live, (1, tx, dropped, self.cycles_charged - spent))
            )
        self.cycles_charged = before
        return results

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Pipeline:
    """A module graph with named entry points.

    ``push()`` run-to-completion-processes a packet from an entry module
    and returns the packets that exited the graph (reached a module whose
    output gate is unconnected), along with the exit module.
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self.modules: Dict[str, Module] = {}
        self.entries: Dict[str, Module] = {}

    def add(self, module: Module, entry: bool = False) -> Module:
        if module.name in self.modules:
            raise DataplaneError(f"duplicate module name {module.name!r}")
        self.modules[module.name] = module
        if entry:
            self.entries[module.name] = module
        return module

    def module(self, name: str) -> Module:
        module = self.modules.get(name)
        if module is None:
            raise DataplaneError(f"no module named {name!r} in {self.name}")
        return module

    def _start(self, entry: Optional[str]) -> Module:
        if entry is not None:
            return self.module(entry)
        if len(self.entries) != 1:
            raise DataplaneError(
                f"{self.name}: specify an entry (have {sorted(self.entries)})"
            )
        return next(iter(self.entries.values()))

    def push(
        self, packet: Packet, entry: Optional[str] = None
    ) -> List[Tuple[Module, Packet]]:
        """Process a packet to completion; returns (exit module, packet)."""
        start = self._start(entry)
        exits: List[Tuple[Module, Packet]] = []
        work: List[Tuple[Module, Packet]] = [(start, packet)]
        hops = 0
        max_hops = 10_000
        while work:
            module, pkt = work.pop()
            hops += 1
            if hops > max_hops:
                raise DataplaneError(
                    f"{self.name}: packet exceeded {max_hops} hops (loop?)"
                )
            for gate, out in module.receive(pkt):
                nxt = module.downstream(gate)
                if nxt is None:
                    exits.append((module, out))
                else:
                    work.append((nxt, out))
        return exits

    def push_batch(
        self, batch: Iterable[Packet], entry: Optional[str] = None
    ) -> List[Tuple[Module, Packet]]:
        """Stage-wise batched traversal of the module graph.

        Packets advance through the graph a *module at a time* instead of a
        packet at a time: each module receives the packets an upstream
        gate hands it in one :meth:`Module.receive_batch` call, in arrival
        order. A module fed by a single gate therefore sees packets (and
        evolves its RNG stream and state) exactly as under the serial
        :meth:`push` loop. A module fed by several gates (fan-in) receives
        one gate's group after another — not serial order — so
        :func:`~repro.bess.pipeline.build_bess_pipeline` gives a subgroup
        shared by several service paths one demux gate per instance; the
        only fan-in left is the stateless NSH-encap tail, so the exit order
        need not be the input order.
        """
        packets = list(batch)
        if not packets:
            return []
        exits: List[Tuple[Module, Packet]] = []
        work: List[Tuple[Module, List[Packet]]] = [
            (self._start(entry), packets)
        ]
        steps = 0
        max_steps = 10_000 * len(packets)
        while work:
            module, pkts = work.pop()
            steps += len(pkts)
            if steps > max_steps:
                raise DataplaneError(
                    f"{self.name}: batch exceeded {max_steps} hops (loop?)"
                )
            grouped: Dict[int, List[Packet]] = {}
            order: List[int] = []
            for gate, out in module.receive_batch(pkts):
                bucket = grouped.get(gate)
                if bucket is None:
                    bucket = grouped[gate] = []
                    order.append(gate)
                bucket.append(out)
            for gate in reversed(order):
                nxt = module.downstream(gate)
                if nxt is None:
                    exits.extend((module, p) for p in grouped[gate])
                else:
                    work.append((nxt, grouped[gate]))
        return exits

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "rx": m.rx_packets,
                "tx": m.tx_packets,
                "dropped": m.dropped_packets,
                "cycles": m.cycles_charged,
            }
            for name, m in self.modules.items()
        }
