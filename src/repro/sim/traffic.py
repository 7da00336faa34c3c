"""High-volume traffic engine driving the batched dataplane fast path.

The :class:`TrafficEngine` synthesizes a per-chain flow set inside each
chain's traffic aggregate, replays ``packets_per_chain`` packets over those
flows through :meth:`DeployedRack.run` or its bit-identical columnar twin
:meth:`DeployedRack.run_columns` (the engine picks per batch, see
:data:`COLUMNAR_MIN_BATCH`), and reports what the deployed rack achieved:
simulator packets/second, delivery fraction, and the delivered rate
against the LP's per-chain rate assignment (``Placement.rates``) — the
same quantity Figure 2's measured bars are drawn from.

Measurement discipline: flow templates are synthesized **once** per chain
(:meth:`TrafficEngine.synthesize_flows`) and cheap clones cycle through
the rack, with only the rack work inside the timed region — reported
walls measure the dataplane, not Python packet construction. The
aggregate :attr:`TrafficReport.achieved_pps` uses the whole-run wall
clock, engine bookkeeping included.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.graph import NFChain, chains_with_slos
from repro.core.placement import ChainPlacement, Placement
from repro.core.placer import (
    PLACEMENT_OBJECTIVES,
    Placer,
    PlacerConfig,
    PlacementRequest,
)
from repro.core.rates import device_utilization
from repro.exceptions import GraphError, PlacementError, TrafficError
from repro.hw.multirack import MultiRackTopology
from repro.hw.spec import TopologySpec
from repro.metacompiler.compiler import MetaCompiler
from repro.net.packet import Packet
from repro.obs import MetricsRegistry, QuantileSketch
from repro.profiles.defaults import default_profiles
from repro.sim.columns import PacketColumns
from repro.sim.measurement import QUEUEING_MODELS, QueueingModel
from repro.sim.runtime import DeployedRack, _chain_packet
from repro.units import SIM_PACKET_BITS, SLO_RTOL

#: packet size used for rate conversion — derived from the single source
#: of truth in :mod:`repro.units`, which also sizes the synthesized
#: packets' ``total_bytes`` in :func:`repro.sim.runtime._chain_packet`.
PACKET_BITS = SIM_PACKET_BITS

#: smallest batch the columnar loop takes: the smallest measured size at
#: which a batch on a cold rack (nothing probed yet: every phase after a
#: redeploy) costs no more columnar than scalar — below it the probes
#: outweigh the walk they save. docs/performance.md, "Which loop runs".
COLUMNAR_MIN_BATCH = 64


def configure_rack_queueing(rack: DeployedRack, placement: Placement,
                            kind: str) -> None:
    """Install a queueing model on a deployed rack.

    Per-device utilization is derived from the placement's *current* LP
    rates (:func:`repro.core.rates.device_utilization`) — deterministic,
    never wall clock — so every engine that changes rates (deploy, shed,
    replan) re-calls this to keep the stamped queue delay consistent with
    the load the rack is nominally carrying.
    """
    model = QueueingModel(kind)
    utilization = None
    if model.enabled:
        utilization = device_utilization(
            placement.chains, placement.rates, rack.topology
        )
    rack.configure_queueing(model, utilization)


@dataclass
class ChainTrafficReport:
    """What one chain achieved under high-volume replay."""

    chain_name: str
    flows: int
    injected: int
    delivered: int
    dropped: int
    #: wall-clock spent in rack work for this chain (packet construction
    #: happens outside the timed region).
    wall_seconds: float
    #: the LP's rate assignment for this chain (Mbps); 0 when unassigned.
    assigned_mbps: float
    #: the chain's SLO minimum rate (Mbps); 0 means best-effort.
    t_min_mbps: float = 0.0
    #: delivered-latency quantiles (µs) over this chain's replay, within
    #: ``repro.obs.metrics.ALPHA`` of the exact order statistic.
    latency_p50_us: float = 0.0
    latency_p95_us: float = 0.0
    latency_p99_us: float = 0.0
    #: the chain's latency SLO (``d_max``, µs); 0 means unbounded.
    latency_slo_us: float = 0.0

    @classmethod
    def replayed(
        cls,
        cp: ChainPlacement,
        *,
        flows: int,
        injected: int,
        delivered: int,
        latency: QuantileSketch,
        assigned_mbps: float,
        wall_seconds: float = 0.0,
        t_min_mbps: float = 0.0,
    ) -> "ChainTrafficReport":
        """The row of one replayed chain — a whole run's or one phase's:
        quantiles read off its delivered-latency sketch, everything
        injected and not delivered counted dropped, the bound the chain's
        own ``d_max``."""
        p50, p95, p99 = latency.quantiles((0.50, 0.95, 0.99))
        return cls(
            chain_name=cp.name,
            flows=flows,
            injected=injected,
            delivered=delivered,
            dropped=injected - delivered,
            wall_seconds=wall_seconds,
            assigned_mbps=assigned_mbps,
            t_min_mbps=t_min_mbps,
            latency_p50_us=p50,
            latency_p95_us=p95,
            latency_p99_us=p99,
        ).with_d_max(cp.chain.slo.d_max)

    def with_d_max(self, d_max: float) -> "ChainTrafficReport":
        """This row held to ``d_max`` µs (an infinite bound reads 0). A
        fabric merge restores the end-to-end bound with it: a rack core
        holds its chains at ``d_max`` less the inter-rack RTT."""
        return replace(
            self, latency_slo_us=0.0 if math.isinf(d_max) else d_max
        )

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    @property
    def rate_slo_met(self) -> bool:
        """Delivered rate at or above the SLO floor (with float slack)."""
        if self.t_min_mbps <= 0.0 or self.injected == 0:
            return True
        return self.delivered_mbps >= self.t_min_mbps * (1.0 - SLO_RTOL)

    @property
    def latency_slo_met(self) -> bool:
        """Delivered p99 latency within the chain's delay bound."""
        if self.latency_slo_us <= 0.0 or self.delivered == 0:
            return True
        return self.latency_p99_us <= self.latency_slo_us * (1.0 + SLO_RTOL)

    @property
    def slo_met(self) -> bool:
        """Full SLO compliance: rate floor AND tail-latency bound."""
        return self.rate_slo_met and self.latency_slo_met

    @property
    def achieved_pps(self) -> float:
        """Simulator throughput: packets pushed through the rack per
        wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.injected / self.wall_seconds

    @property
    def delivered_mbps(self) -> float:
        """Delivered share of the LP-assigned rate: the rack sustains the
        assigned rate scaled by the fraction of packets it delivered."""
        return self.assigned_mbps * self.delivered_fraction


@dataclass
class TrafficReport:
    """Aggregate of one :meth:`TrafficEngine.run` invocation."""

    chains: List[ChainTrafficReport] = field(default_factory=list)
    #: wall-clock of the whole run() invocation — the denominator for
    #: aggregate throughput.
    run_wall_seconds: float = 0.0

    @property
    def injected(self) -> int:
        return sum(c.injected for c in self.chains)

    @property
    def delivered(self) -> int:
        return sum(c.delivered for c in self.chains)

    @property
    def wall_seconds(self) -> float:
        """Total rack-work wall summed over chains (use
        :attr:`run_wall_seconds` for elapsed time)."""
        return sum(c.wall_seconds for c in self.chains)

    @property
    def achieved_pps(self) -> float:
        """Aggregate throughput against the whole-run wall clock."""
        wall = self.run_wall_seconds or self.wall_seconds
        if wall <= 0:
            return 0.0
        return self.injected / wall

    @property
    def aggregate_delivered_mbps(self) -> float:
        return sum(c.delivered_mbps for c in self.chains)

    @property
    def aggregate_assigned_mbps(self) -> float:
        return sum(c.assigned_mbps for c in self.chains)

    @property
    def ok(self) -> bool:
        """SLO compliance across every chain (the exit-code predicate)."""
        return all(c.slo_met for c in self.chains)

    def as_dict(self) -> dict:
        """Deterministic JSON form (wall-clock quantities excluded)."""
        return {
            "injected": self.injected,
            "delivered": self.delivered,
            "ok": self.ok,
            "chains": [
                {
                    "chain": c.chain_name,
                    "flows": c.flows,
                    "injected": c.injected,
                    "delivered": c.delivered,
                    "assigned_mbps": round(c.assigned_mbps, 6),
                    "delivered_mbps": round(c.delivered_mbps, 6),
                    "t_min_mbps": round(c.t_min_mbps, 6),
                    "latency_p50_us": round(c.latency_p50_us, 6),
                    "latency_p95_us": round(c.latency_p95_us, 6),
                    "latency_p99_us": round(c.latency_p99_us, 6),
                    "latency_slo_us": round(c.latency_slo_us, 6),
                    "latency_slo_met": c.latency_slo_met,
                    "slo_met": c.slo_met,
                }
                for c in self.chains
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        return self.describe()

    def describe(self) -> str:
        """Human-readable table for the ``repro traffic`` subcommand."""
        lines = [
            f"{'chain':<12} {'flows':>5} {'injected':>9} {'delivered':>9} "
            f"{'pps':>10} {'assigned':>9} {'delivered':>10} "
            f"{'t_min':>9} {'p99':>9} {'d_max':>9} {'slo':>9}",
            f"{'':<12} {'':>5} {'':>9} {'':>9} "
            f"{'':>10} {'Mbps':>9} {'Mbps':>10} {'Mbps':>9} "
            f"{'µs':>9} {'µs':>9} {'':>9}",
        ]
        for c in self.chains:
            d_max = (f"{c.latency_slo_us:>9.1f}"
                     if c.latency_slo_us > 0.0 else f"{'—':>9}")
            lines.append(
                f"{c.chain_name:<12} {c.flows:>5} {c.injected:>9} "
                f"{c.delivered:>9} {c.achieved_pps:>10.0f} "
                f"{c.assigned_mbps:>9.0f} {c.delivered_mbps:>10.0f} "
                f"{c.t_min_mbps:>9.0f} {c.latency_p99_us:>9.1f} "
                f"{d_max} "
                f"{'ok' if c.slo_met else 'VIOLATED':>9}"
            )
        lines.append(
            f"{'total':<12} {'':>5} {self.injected:>9} {self.delivered:>9} "
            f"{self.achieved_pps:>10.0f} "
            f"{self.aggregate_assigned_mbps:>9.0f} "
            f"{self.aggregate_delivered_mbps:>10.0f} "
            f"{'':>9} {'':>9} {'':>9} "
            f"{'ok' if self.ok else 'VIOLATED':>9}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class RunSpec:
    """What every fully-stated run shares: chains, SLOs, the rack, and
    the placement/replay settings.

    :class:`TrafficSpec`, :class:`~repro.sim.faults.ChaosSpec`,
    :class:`~repro.sim.lifecycle.LifecycleSpec` and
    :class:`~repro.serve.daemon.ServeConfig` subclass this with only
    their own fields. Everything needed to rebuild the topology, chains,
    placement, and rack lives in the spec, so the engines are pure
    functions of it and worker processes rebuild the identical run.
    """

    spec_text: str
    #: one (t_min_mbps, t_max_mbps[, d_max_us]) tuple per chain in spec
    #: order; the delay bound defaults to unbounded when omitted.
    slos: Tuple[Tuple[float, ...], ...]
    #: the rack or fabric, as data (default: the paper testbed).
    topology: TopologySpec = TopologySpec()
    flows_per_chain: int = 32
    batch_size: int = 32
    seed: int = 23
    strategy: str = "lemur"
    #: queueing-delay model the deployed rack stamps (``none`` or ``mm1``).
    queueing: str = "none"
    #: placement objective (``throughput`` or ``tail_latency``).
    objective: str = "throughput"

    #: the exception family this spec's validation raises in.
    _error: ClassVar[type] = GraphError

    def __post_init__(self) -> None:
        # eagerly, so a typo fails at construction, not mid-run
        if self.queueing not in QUEUEING_MODELS:
            raise self._error(
                f"queueing must be one of {sorted(QUEUEING_MODELS)}"
            )
        if self.objective not in PLACEMENT_OBJECTIVES:
            raise self._error(
                f"objective must be one of {sorted(PLACEMENT_OBJECTIVES)}"
            )

    def build_topology(self):
        """Build the (single- or multi-rack) topology this spec names."""
        return self.topology.build()

    def build_chains(self) -> List[NFChain]:
        return chains_with_slos(self.spec_text, self.slos,
                                error=self._error)


@dataclass(frozen=True)
class TrafficSpec(RunSpec):
    """A fully-stated, picklable traffic replay: :func:`run_traffic` is
    a pure function of it."""

    packets_per_chain: int = 2048
    flows_per_chain: int = 64
    batch_size: int = 64

    _error: ClassVar[type] = TrafficError


class TrafficEngine:
    """Replay synthesized flow sets through a deployed rack in batches.

    Each batch takes one of the rack's two bit-identical loops: the
    columnar :meth:`DeployedRack.run_columns` from
    :data:`COLUMNAR_MIN_BATCH` packets up — unless the chain's last
    columnar batch fell back structurally, when every batch would — else
    the scalar :meth:`DeployedRack.run`.
    """

    def __init__(self, rack: DeployedRack, placement: Placement, *,
                 flows_per_chain: int = 64, batch_size: int = 64):
        if flows_per_chain < 1:
            raise ValueError("flows_per_chain must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.rack = rack
        self.placement = placement
        self.flows_per_chain = flows_per_chain
        self.batch_size = batch_size
        #: chain name -> (chain object, synthesized flow templates, whether
        #: the chain's last columnar batch fell back structurally); the
        #: chain object guards against a redeployed chain of the same name.
        self._flows: Dict[str, tuple] = {}

    def __getstate__(self) -> dict:
        # the templates (and the parse each carries) are a memo of a pure
        # function of the chain: a serve checkpoint does not store them
        state = self.__dict__.copy()
        state["_flows"] = {}
        return state

    @classmethod
    def from_spec(cls, spec: TrafficSpec, *,
                  registry: Optional[MetricsRegistry] = None
                  ) -> "TrafficEngine":
        """Place, compile, and deploy ``spec``'s chains; return a ready
        engine. Raises :class:`PlacementError` when no placement fits."""
        topology = spec.build_topology()
        if isinstance(topology, MultiRackTopology):
            raise TrafficError(
                "TrafficEngine drives one rack; replay a fabric spec "
                "through run_traffic (which stitches racks via "
                "repro.sim.interrack.run_fabric_traffic)"
            )
        chains = spec.build_chains()
        placer = Placer(topology=topology, profiles=default_profiles(),
                        config=PlacerConfig(strategy=spec.strategy))
        placement = placer.solve(PlacementRequest(
            chains=chains, objective=spec.objective,
        )).placement
        if not placement.feasible:
            raise PlacementError(
                "traffic replay needs a feasible placement: "
                f"{placement.infeasible_reason}"
            )
        artifacts = MetaCompiler(
            topology=topology, profiles=placer.profiles
        ).compile_placement(placement)
        rack = DeployedRack(topology, artifacts, placer.profiles,
                            seed=spec.seed, registry=registry)
        configure_rack_queueing(rack, placement, spec.queueing)
        return cls(rack, placement,
                   flows_per_chain=spec.flows_per_chain,
                   batch_size=spec.batch_size)

    def synthesize_flows(self, cp: ChainPlacement) -> List[Packet]:
        """One template packet per flow, all inside the chain's aggregate.

        Flow keys vary by source address and source port (the same scheme
        :meth:`DeployedRack.trace_chains` uses), so repeated replay of a
        flow exercises the rack's per-flow classification cache the way a
        real traffic mix would. Synthesized once per chain and memoized:
        replay cycles cheap clones of these templates (the templates
        themselves are never injected, so they stay pristine).
        """
        cached = self._flows.get(cp.name)
        if cached is not None and cached[0] is cp.chain:
            return cached[1]
        flows = [
            _chain_packet(cp.chain, index)
            for index in range(self.flows_per_chain)
        ]
        for template in flows:
            # parse (and hash) each template once, here: every replayed
            # clone inherits the parse instead of redoing it
            template.flow_digest()
        self._flows[cp.name] = (cp.chain, flows, False)
        return flows

    def _inject(self, cp: ChainPlacement, flows: List[Packet], base: int,
                size: int) -> Tuple[int, Sequence[float], float]:
        """Push one batch through the rack: packets ``base .. base+size``
        of the flow cycle (packet ``i`` belongs to flow ``i % flows``).

        Returns ``(delivered, stamps, rack_wall_seconds)`` — the
        delivered packets' latency stamps (µs) in injection order,
        whichever loop ran: a float64 array from the columnar loop, a
        list from the scalar one. Only rack work is timed: packet clones
        and the signature column are built before the clock starts, the
        stamps are collected after it stops.
        """
        n_flows = len(flows)
        _chain, _templates, fell_back = self._flows[cp.name]
        columnar = size >= COLUMNAR_MIN_BATCH and not fell_back
        self.rack.obs.counter(
            "traffic.batches", loop="columnar" if columnar else "scalar"
        ).inc()
        if columnar:
            sig = np.arange(base, base + size, dtype=np.int64) % n_flows
            started = time.perf_counter()
            result = self.rack.run_columns(
                cp, PacketColumns.for_flows(flows, sig)
            )
            wall = time.perf_counter() - started
            if result.structural_fallback:
                self._flows[cp.name] = (cp.chain, flows, True)
            # finished blocks and packets that took the scalar bridge
            # interleave: each stamp lands at its injection position
            stamps = np.full(size, np.nan)
            for block in result.blocks:
                stamps[block.columns.seq - result.seq_base] = block.latency_us
            for seq, packet in result.scalar.items():
                if packet is not None:
                    stamp = packet.metadata.fields["latency_us"]
                    stamps[seq - result.seq_base] = stamp
            if result.delivered < size:
                stamps = stamps[~np.isnan(stamps)]
            return result.delivered, stamps, wall
        batch = [
            flows[(base + offset) % n_flows].copy()
            for offset in range(size)
        ]
        started = time.perf_counter()
        outputs = self.rack.run(cp, batch).outputs
        wall = time.perf_counter() - started
        samples = [
            packet.metadata.fields["latency_us"]
            for packet in outputs if packet is not None
        ]
        return len(samples), samples, wall

    def _batches(self, cp: ChainPlacement, start: int, count: int):
        """``_inject``'s triple for each batch of packets ``start ..
        start+count`` of ``cp``'s flow cycle."""
        flows = self.synthesize_flows(cp)
        for base in range(start, start + count, self.batch_size):
            yield self._inject(
                cp, flows, base, min(self.batch_size, start + count - base)
            )

    def replay(self, cp: ChainPlacement, start: int,
               count: int) -> Tuple[int, QuantileSketch, float]:
        """Inject packets ``start .. start+count`` of ``cp``'s flow cycle
        in batches: ``(delivered, latency sketch, rack wall)``, each
        batch's stamps folded into the sketch as it leaves the rack — a
        whole run's or one phase's report row, with no per-packet array
        kept."""
        delivered = 0
        wall = 0.0
        sketch = QuantileSketch()
        for got, samples, spent in self._batches(cp, start, count):
            delivered += got
            wall += spent
            sketch.add_many(samples)
        return delivered, sketch, wall

    def replay_batch(self, cp: ChainPlacement, cursor: int,
                     count: int) -> Tuple[int, int, List[float]]:
        """Inject ``count`` packets of ``cp``'s flow cycle from ``cursor``.

        The chaos engine's segment-by-segment injection primitive: packet
        ``cursor + i`` belongs to flow ``(cursor + i) % flows_per_chain``,
        exactly the cycling :meth:`run` uses, so resuming a replay after a
        redeploy continues the same deterministic flow sequence. Returns
        ``(delivered, new_cursor, stamps)``: the delivered packets'
        end-to-end latencies (µs) as a list in injection order, the chaos
        guard's trailing-window input.
        """
        delivered = 0
        samples: List[float] = []
        for got, stamps, _wall in self._batches(cp, cursor, count):
            delivered += got
            samples.extend(stamps.tolist() if isinstance(stamps, np.ndarray)
                           else stamps)
        return delivered, cursor + count, samples

    def run(self, packets_per_chain: int = 1024,
            chain_names: Optional[List[str]] = None) -> TrafficReport:
        """Inject ``packets_per_chain`` packets per chain, in batches."""
        selected = [
            cp for cp in self.placement.chains
            if chain_names is None or cp.name in chain_names
        ]
        report = TrafficReport()
        started = time.perf_counter()
        report.chains = [
            self._run_chain(cp, packets_per_chain) for cp in selected
        ]
        report.run_wall_seconds = time.perf_counter() - started
        return report

    def _run_chain(self, cp: ChainPlacement,
                   packets_per_chain: int) -> ChainTrafficReport:
        """Replay one chain; only rack work lands in the timed region."""
        delivered, latency, wall = self.replay(cp, 0, packets_per_chain)
        return ChainTrafficReport.replayed(
            cp,
            flows=min(self.flows_per_chain, packets_per_chain),
            injected=packets_per_chain,
            delivered=delivered,
            latency=latency,
            assigned_mbps=self.placement.rates.get(cp.name, 0.0),
            wall_seconds=wall,
            t_min_mbps=cp.chain.slo.t_min,
        )


def run_traffic(
    spec: TrafficSpec,
    registry: Optional[MetricsRegistry] = None,
):
    """Run one high-volume replay from a fully-stated spec.

    A single-rack spec returns a :class:`TrafficReport`; a multi-rack
    spec is placed hierarchically and stitched over the inter-rack
    links, returning a
    :class:`~repro.sim.interrack.FabricTrafficReport` (same ``ok`` /
    ``describe`` / ``as_dict`` surface).
    """
    topology = spec.build_topology()
    if isinstance(topology, MultiRackTopology):
        from repro.sim.interrack import run_fabric_traffic

        return run_fabric_traffic(spec, topology, registry=registry)
    engine = TrafficEngine.from_spec(spec, registry=registry)
    return engine.run(packets_per_chain=spec.packets_per_chain)
