"""Columnar (structure-of-arrays) packet batches for the vectorized dataplane.

The scalar dataplane moves :class:`~repro.net.packet.Packet` objects one
attribute at a time; at high volume the Python object walk dominates. A
:class:`PacketColumns` batch instead keeps **one frozen template packet per
distinct flow signature** plus numpy arrays for everything that is per-packet:
the flow signature and its dense per-batch id, the route class, injection
sequence and cycle charges (total and per device). Because every packet of a
signature is byte-identical, the rack resolves a flow's route **once**: each
hop is *probed* with one clone through the real platform runtime, the outcomes
are kept as the flow's *route trace*, and flows whose traces agree on every hop
share a *route class* (see :meth:`repro.sim.runtime.DeployedRack.run_columns`).
A batch then replays hop by hop **per class** — counter deltas times the
class's population, one table-take for the per-packet cycle column.

Two dense id columns keep a batch O(packets) in numpy and O(route classes) in
Python: :meth:`PacketColumns.resolve` counts the signature column (flow
indexes, so one ``np.bincount`` and no sort) and keeps each packet's rank among
the present signatures as ``sid`` (what a delivered packet's bytes are read
through), the rack maps it to the class column ``cid``, and ``compress``
carries both along. A hop gets its live classes and their populations from one
``np.bincount(cid)`` and turns per-class attributes into per-packet columns
with :meth:`PacketColumns.spread` — nothing walks ``sig`` in Python and nothing
is sized by the flow table.

Stateful or payload-mutating NFs fall back transparently:
:meth:`materialize_packets` rebuilds real ``Packet`` objects mid-flight and
the scalar steps of the same graph schedule take over, bit-identical to a
scalar run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metacompiler.nsh import ServicePath
from repro.net.packet import Packet


def seq_dropped(seq: int, seed: int, loss: float) -> bool:
    """Does a ``loss`` share of packets, hashed by injection sequence
    against ``seed``, take packet ``seq``?

    The rack's one partial-loss decision (device faults under the rack
    seed, inter-rack links under the link-salted seed): a 32-bit hash of
    ``(seq, seed)`` read as a fraction of ``2**32``, never wall clock or a
    shared RNG stream, so a (seed, seq) pair always resolves the same way
    in either loop and across repeated runs.
    """
    x = (seq * 2654435761 + seed * 40503 + 0x9E3779B9) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x / 4294967296.0 < loss


def vector_fault_mask(seq: np.ndarray, seed: int, loss: float) -> np.ndarray:
    """:func:`seq_dropped` over a whole sequence column.

    Bit-exact uint64 replication of the scalar hash: the mask is a
    power-of-two truncation (so modular wrap-around is harmless) and the
    final ``x / 2**32`` is exact in float64 for any 32-bit ``x``.
    """
    x = (seq.astype(np.uint64) * np.uint64(2654435761)
         + np.uint64((seed * 40503 + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF))
    x &= np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x45D9F3B)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    return (x.astype(np.float64) / 4294967296.0) < loss


@dataclass(eq=False)
class _RouteClass:
    """The flows of one service path whose traces agree so far, hop for
    hop, on ``(effect class, pkt_cycles, survived, next coordinates)``;
    a column run replays per class, and identity is the class.

    ``steps[d]`` is one member's probe at step ``d`` (a hop, or a switch
    hop's part up to a merge node) standing for them all (all but its
    ``template`` is common), or None where they cannot be replayed
    there. The class is *open* at step
    ``len(steps)``: a run that gets there probes each member and moves
    its trace to the :meth:`after` class, which interns the agreement.
    """

    path: ServicePath
    steps: tuple = ()
    children: dict = field(default_factory=dict)

    def after(self, probe) -> "_RouteClass":
        """The class of the members that make ``probe`` of the next hop
        (None: they cannot be replayed through it)."""
        key = probe and (id(probe.effect), probe.pkt_cycles, probe.survived,
                         probe.next_spi, probe.next_si)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = _RouteClass(
                self.path, self.steps + (probe,)
            )
        return child


class _RouteTrace:
    """One (chain, flow template)'s resolved route: its class, and
    ``templates[d]``, what the first ``d`` steps made of the template.
    ``templates[0]`` is the flow template itself — the memo keys on its
    identity, and this reference keeps that identity from being reused."""

    __slots__ = ("route", "templates")

    def __init__(self, route: _RouteClass, template: Packet):
        self.route = route
        self.templates = [template]


class PacketColumns:
    """A batch of packets in structure-of-arrays form.

    ``usig`` holds the batch's distinct flow signatures in ascending order
    and ``templates[k]`` the frozen template packet of signature
    ``usig[k]`` — only signatures present in the batch are held. These
    three are filled in by :meth:`resolve`. The rack adds ``traces[k]``,
    the signature's route trace, and ``classes``, the batch's route classes
    (both shared by every run the batch splits into); while hops replay,
    what a signature's template has become lives in its trace, and
    :meth:`settle` reads it back into ``templates``. The arrays are
    aligned per packet:

    * ``sig``: flow signature of each packet (``int64``)
    * ``sid``: dense signature id of each packet (``usig[sid] == sig``);
      ids are per batch, so a run keeps its batch's numbering and may
      leave some ids unused
    * ``cid``: route class of each packet, an index into ``classes``
      (assigned by the rack)
    * ``seq``: rack injection sequence (``int64``; assigned by the rack)
    * ``cycles``: total cycles charged so far (``int64``)
    * ``device_cycles``: device name -> per-packet cycles on that device's
      clock, in first-charge order (``device_order``)

    and ``hops``: one ``(device, platform, freq)`` per completed hop,
    ``freq`` None on the switch, or None per step that stopped at a merge
    node inside a switch hop. A hop's per-packet record
    is derived when packets are rebuilt: its cycles are the device's
    column (a column run never visits a device twice, see
    :meth:`DeployedRack._trace_hop`) or zero on the switch.
    """

    __slots__ = ("templates", "usig", "sig", "sid", "cid", "seq", "cycles",
                 "device_order", "device_cycles", "hops", "traces", "classes",
                 "_by_sig")

    def __init__(self, templates, sig: Sequence[int],
                 seq: Optional[np.ndarray] = None):
        """``sig`` holds flow indexes into the flow list ``templates``; it
        is only read, and only for the flows present, when the batch is
        resolved."""
        self.sig = np.asarray(sig, dtype=np.int64)
        n = len(self.sig)
        self._by_sig = templates
        self.templates: Optional[List[Packet]] = None
        self.usig: Optional[np.ndarray] = None
        self.sid: Optional[np.ndarray] = None
        self.cid: Optional[np.ndarray] = None
        self.traces: Optional[list] = None
        self.classes: Optional[list] = None
        self.seq = (seq if seq is not None
                    else np.zeros(n, dtype=np.int64))
        self.cycles = np.zeros(n, dtype=np.int64)
        self.device_order: List[str] = []
        self.device_cycles: Dict[str, np.ndarray] = {}
        self.hops: List[Optional[tuple]] = []

    def resolve(self) -> None:
        """Resolve the signature column into ``usig``, ``sid`` and
        ``templates`` by counting it: signatures are flow indexes, so the
        present ones are the non-zero bins of one ``np.bincount``, in
        ascending order, and ``sid`` reads each packet's rank among them
        through a table — what ``np.unique(sig, return_inverse=True)``
        gives, without a sort. Idempotent; :meth:`DeployedRack.run_columns`
        does it on entry."""
        if self.sid is None:
            present = np.bincount(self.sig)
            self.usig = np.flatnonzero(present)
            rank = np.zeros(len(present), dtype=np.intp)
            rank[self.usig] = np.arange(len(self.usig))
            self.sid = rank[self.sig]
            self.templates = list(map(self._by_sig.__getitem__,
                                      self.usig.tolist()))
            self._by_sig = None

    @classmethod
    def for_flows(cls, flows: Sequence[Packet],
                  sig: Sequence[int]) -> "PacketColumns":
        """Batch ``len(sig)`` packets over a flow-template set: packet ``i``
        is (virtually) a clone of ``flows[sig[i]]``."""
        return cls(flows, sig)

    def __len__(self) -> int:
        return len(self.sig)

    # -- restructuring ------------------------------------------------------

    def spread(self, live: List[int], values: list,
               dtype=np.int64) -> np.ndarray:
        """Per-packet column from one value per live route class (``live``
        ascending; every packet's class must be in it)."""
        if len(set(values)) == 1:
            return np.full(len(self.cid), values[0], dtype=dtype)
        table = np.zeros(live[-1] + 1, dtype=dtype)
        table[live] = values
        return table[self.cid]

    def census(self):
        """``(counts, live, steps)``: packets per route class, the classes
        that have any (ascending), and each one's step at the hop the run
        is at. IndexError where a live class is still open there."""
        counts = np.bincount(self.cid)
        live = counts.nonzero()[0].tolist()
        depth = len(self.hops)
        return counts, live, [self.classes[c].steps[depth] for c in live]

    def settle(self) -> None:
        """Read back into ``templates`` what each signature's trace made of
        its template over the hops replayed so far (a signature none of
        whose packets got this far reads whatever its trace ends on).
        Needed only where packets are rebuilt, so left to those who do."""
        if self.traces is not None:
            depth = len(self.hops)
            self.templates = [
                trace.templates[min(depth, len(trace.templates) - 1)]
                for trace in self.traces
            ]

    def compress(self, mask: np.ndarray) -> "PacketColumns":
        """Keep only the packets where ``mask`` is True (the template list
        is copied so each run settles its own; the frozen packets are
        shared)."""
        out = PacketColumns.__new__(PacketColumns)
        out._by_sig = None
        out.templates = self.templates.copy()
        out.traces = self.traces
        out.classes = self.classes
        out.usig = self.usig
        out.sig = self.sig[mask]
        out.sid = self.sid[mask]
        out.cid = None if self.cid is None else self.cid[mask]
        out.seq = self.seq[mask]
        out.cycles = self.cycles[mask]
        out.device_order = list(self.device_order)
        out.device_cycles = {
            device: arr[mask] for device, arr in self.device_cycles.items()
        }
        out.hops = list(self.hops)
        return out

    def charge_device(self, device: str, delta: np.ndarray) -> None:
        """Accumulate per-packet cycles on ``device``'s clock."""
        existing = self.device_cycles.get(device)
        if existing is None:
            self.device_order.append(device)
            self.device_cycles[device] = delta.astype(np.int64)
        else:
            self.device_cycles[device] = existing + delta

    # -- scalar bridge ------------------------------------------------------

    def materialize_packets(self, chain_id: Optional[str] = None):
        """Rebuild real ``Packet`` objects (plus their per-hop records) so
        the scalar steps can take over mid-flight."""
        self.resolve()
        self.settle()
        packets: List[Packet] = []
        hop_records: Dict[int, List[dict]] = {}
        seqs = self.seq.tolist()
        cycles = self.cycles.tolist()
        by_device = [(device, self.device_cycles[device].tolist())
                     for device in self.device_order]
        hops = []
        for device, platform, freq in filter(None, self.hops):
            if freq is None:  # the switch charges no device clock
                hops.append((device, platform, [0] * len(seqs),
                             [0.0] * len(seqs)))
            else:
                charged = self.device_cycles[device]
                hops.append((device, platform, charged.tolist(),
                             (charged / freq * 1e6).tolist()))
        for i, k in enumerate(self.sid.tolist()):
            packet = self.templates[k].copy()
            meta = packet.metadata
            meta.seq = seqs[i]
            if chain_id is not None:
                meta.chain_id = chain_id
            meta.cycles_consumed = cycles[i]
            meta.cycles_by_device = {
                device: charged[i] for device, charged in by_device
                if charged[i]
            }
            hop_records[seqs[i]] = [
                {"device": device, "platform": platform,
                 "cycles": hop_cycles[i], "exec_us": exec_us[i]}
                for device, platform, hop_cycles, exec_us in hops
            ]
            packets.append(packet)
        return packets, hop_records


@dataclass
class _FinishedBlock:
    """A delivered column run plus its latency columns (stamped lazily)."""

    columns: PacketColumns
    exec_us: np.ndarray
    #: utilization-dependent queueing wait (zeros when queueing is off)
    queue_us: np.ndarray
    latency_us: np.ndarray
    bounce_us: float
    switch_us: float
    #: inter-rack fabric round trip (None when the chain is rack-local;
    #: mirrors the scalar stamp, which only writes the field for chains
    #: with a configured inter-rack hop)
    interrack_us: Optional[float] = None


@dataclass
class ColumnarRunResult:
    """One :meth:`DeployedRack.run_columns` call's outcome.

    Delivery counts are available without materializing packets (the hot
    path the benchmarks measure); :meth:`materialize` rebuilds the full
    per-packet ``RunResult`` view for equivalence checks and tracing.
    """

    chain_id: str
    count: int
    seq_base: int
    #: seq -> delivered packet or None, for packets that went through the
    #: scalar fallback bridge.
    scalar: Dict[int, Optional[Packet]] = field(default_factory=dict)
    blocks: List[_FinishedBlock] = field(default_factory=list)
    #: a hop the probe model cannot express sent a run to the scalar steps
    #: (the whole-batch bridge on entry, a state of the rack, does not count)
    structural_fallback: bool = False

    @property
    def delivered(self) -> int:
        columnar = sum(len(block.columns) for block in self.blocks)
        scalar = sum(1 for p in self.scalar.values() if p is not None)
        return columnar + scalar

    @property
    def dropped(self) -> int:
        return self.count - self.delivered

    def __len__(self) -> int:
        return self.count

    def materialize(self) -> List[Optional[Packet]]:
        """Per-packet outputs in injection order (``None`` = dropped)."""
        outputs: List[Optional[Packet]] = [None] * self.count
        for seq, packet in self.scalar.items():
            outputs[seq - self.seq_base] = packet
        for block in self.blocks:
            packets, hop_records = block.columns.materialize_packets(
                self.chain_id)
            for i, packet in enumerate(packets):
                meta = packet.metadata
                fields = meta.fields = dict(meta.fields)
                fields["exec_us"] = float(block.exec_us[i])
                fields["queue_us"] = float(block.queue_us[i])
                fields["bounce_us"] = block.bounce_us
                fields["switch_us"] = block.switch_us
                if block.interrack_us is not None:
                    fields["interrack_us"] = block.interrack_us
                fields["latency_us"] = float(block.latency_us[i])
                fields["hops"] = hop_records[meta.seq]
                outputs[meta.seq - self.seq_base] = packet
        return outputs
