"""Columnar (structure-of-arrays) packet batches for the vectorized dataplane.

The scalar dataplane moves :class:`~repro.net.packet.Packet` objects one
attribute at a time; at high volume the Python object walk dominates. A
:class:`PacketColumns` batch instead keeps **one frozen template packet per
distinct flow signature** plus numpy arrays for everything that is
per-packet: the flow signature and its dense per-batch id, injection
sequence, cycle charges (total and per device), NSH ``(spi, si)`` labels,
and per-hop cycle/latency columns. Because every packet of a signature is
byte-identical, a service-path hop only has to be *probed* once per
(device, coordinates, template-bytes) — the runtime runs one clone through
the real platform runtime, records the per-module counter deltas and the
transformed output template, and then replays the effect across the whole
column arithmetically (see
:meth:`repro.sim.runtime.DeployedRack.run_columns`).

The dense id column is what keeps a batch O(packets) in numpy and
O(distinct signatures) in Python: :meth:`PacketColumns.resolve` runs the
batch's only ``np.unique`` over the signature column and keeps the inverse
as ``sid``; ``slice``/``compress`` carry it along, so a hop gets its live
signatures and their multiplicities from one ``np.bincount(sid)`` and turns
per-signature probe attributes into per-packet columns with
:meth:`PacketColumns.spread` — nothing walks ``sig`` in Python and nothing
is sized by the flow table.

Divergent, stateful, or payload-mutating NFs fall back transparently:
:meth:`materialize_packets` rebuilds real ``Packet`` objects mid-flight and
the scalar block loop takes over, bit-identical to a scalar run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.packet import Packet


def vector_fault_mask(seq: np.ndarray, seed: int, loss: float) -> np.ndarray:
    """Vectorized :meth:`DeployedRack._fault_reason` partial-loss decision.

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


@dataclass
class HopColumn:
    """Per-hop record column: the vectorized ``hops`` metadata entry."""

    device: str
    platform: str
    cycles: np.ndarray
    exec_us: np.ndarray

    def take(self, index) -> "HopColumn":
        return HopColumn(self.device, self.platform,
                         self.cycles[index], self.exec_us[index])


class PacketColumns:
    """A batch of packets in structure-of-arrays form.

    ``usig`` holds the batch's distinct flow signatures in ascending order
    and ``templates[k]`` the *current* frozen template packet of signature
    ``usig[k]`` (replaced wholesale as hops transform it; never mutated in
    place) — only signatures present in the batch are held. These three are
    filled in by :meth:`resolve`. The arrays are aligned per packet:

    * ``sig``: flow signature of each packet (``int64``)
    * ``sid``: dense signature id of each packet (``usig[sid] == sig``);
      ids are per batch, so a sub-block keeps its parent's numbering and
      may leave some ids unused
    * ``seq``: rack injection sequence (``int64``; assigned by the rack)
    * ``spi`` / ``si``: current NSH service-path labels (``int64``)
    * ``cycles``: total cycles charged so far (``int64``)
    * ``device_cycles``: device name -> per-packet cycles on that device's
      clock, in first-charge order (``device_order``)
    * ``hops``: one :class:`HopColumn` per completed hop
    """

    __slots__ = ("templates", "usig", "sig", "sid", "seq", "spi", "si",
                 "cycles", "device_order", "device_cycles", "hops", "_by_sig")

    def __init__(self, templates, sig: Sequence[int],
                 seq: Optional[np.ndarray] = None):
        """``templates`` is anything indexable by signature (a dict, or a
        flow list when signatures are flow indexes); it is only read, and
        only for the signatures present, when the batch is resolved."""
        self.sig = np.asarray(sig, dtype=np.int64)
        n = len(self.sig)
        self._by_sig = templates
        self.templates: Optional[List[Packet]] = None
        self.usig: Optional[np.ndarray] = None
        self.sid: Optional[np.ndarray] = None
        self.seq = (seq if seq is not None
                    else np.zeros(n, dtype=np.int64))
        self.spi = np.zeros(n, dtype=np.int64)
        self.si = np.zeros(n, dtype=np.int64)
        self.cycles = np.zeros(n, dtype=np.int64)
        self.device_order: List[str] = []
        self.device_cycles: Dict[str, np.ndarray] = {}
        self.hops: List[HopColumn] = []

    def resolve(self) -> None:
        """Resolve the signature column — the batch's one ``np.unique`` —
        into ``usig``, ``sid`` and ``templates``. Idempotent;
        :meth:`DeployedRack.run_columns` does it on entry."""
        if self.sid is None:
            self.usig, self.sid = np.unique(self.sig, return_inverse=True)
            self.templates = [self._by_sig[s] for s in self.usig.tolist()]
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
        """Per-packet column from one value per live signature id (every
        packet's id must be in ``live``)."""
        if len(set(values)) == 1:
            return np.full(len(self.sid), values[0], dtype=dtype)
        table = np.zeros(len(self.templates), dtype=dtype)
        table[live] = values
        return table[self.sid]

    def slice(self, start: int, end: int) -> "PacketColumns":
        """A consecutive sub-block (the template list is copied so each
        block evolves its own; the frozen packets are shared)."""
        return self._rebuild(slice(start, end))

    def compress(self, mask: np.ndarray) -> "PacketColumns":
        """Keep only the packets where ``mask`` is True."""
        return self._rebuild(mask)

    def _rebuild(self, index) -> "PacketColumns":
        out = PacketColumns.__new__(PacketColumns)
        out._by_sig = None
        out.templates = self.templates.copy()
        out.usig = self.usig
        out.sig = self.sig[index]
        out.sid = self.sid[index]
        out.seq = self.seq[index]
        out.spi = self.spi[index]
        out.si = self.si[index]
        out.cycles = self.cycles[index]
        out.device_order = list(self.device_order)
        out.device_cycles = {
            device: arr[index] for device, arr in self.device_cycles.items()
        }
        out.hops = [hop.take(index) for hop in self.hops]
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
        the scalar block loop can take over mid-flight."""
        self.resolve()
        packets: List[Packet] = []
        hop_records: Dict[int, List[dict]] = {}
        seqs = self.seq.tolist()
        cycles = self.cycles.tolist()
        by_device = [(device, self.device_cycles[device].tolist())
                     for device in self.device_order]
        hops = [(hop.device, hop.platform, hop.cycles.tolist(),
                 hop.exec_us.tolist()) for hop in self.hops]
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
    """A delivered block plus its latency columns (stamped lazily)."""

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
    #: a hop the probe model cannot express sent a block to the scalar loop
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
            cols = block.columns
            seqs = cols.seq.tolist()
            for i, k in enumerate(cols.sid.tolist()):
                seq = seqs[i]
                packet = cols.templates[k].copy()
                meta = packet.metadata
                meta.seq = seq
                meta.chain_id = self.chain_id
                meta.cycles_consumed = int(cols.cycles[i])
                meta.cycles_by_device = {
                    device: int(cols.device_cycles[device][i])
                    for device in cols.device_order
                    if cols.device_cycles[device][i]
                }
                fields = dict(meta.fields)
                fields["exec_us"] = float(block.exec_us[i])
                fields["queue_us"] = float(block.queue_us[i])
                fields["bounce_us"] = block.bounce_us
                fields["switch_us"] = block.switch_us
                if block.interrack_us is not None:
                    fields["interrack_us"] = block.interrack_us
                fields["latency_us"] = float(block.latency_us[i])
                fields["hops"] = [
                    {"device": hop.device, "platform": hop.platform,
                     "cycles": int(hop.cycles[i]),
                     "exec_us": float(hop.exec_us[i])}
                    for hop in cols.hops
                ]
                meta.fields = fields
                outputs[seq - self.seq_base] = packet
        return outputs
