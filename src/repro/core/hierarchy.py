"""Hierarchical multi-rack placement: partition, then place per rack.

:class:`MultiRackPlacer` is the fabric-level twin of the single-rack
:class:`~repro.core.placer.Placer`, and a fabric's one cold solve:
``repro place`` calls it, and so does every fabric bootstrap of the
:class:`~repro.sim.admission.AdmissionCore` (traffic, lifecycle, chaos,
serve). ``solve`` runs in two stages:

1. **Partition** — :func:`~repro.core.partition.partition_chains`
   assigns every chain a home rack (greedy bin-pack + LP refinement),
   charging inter-rack round trips against each chain's ``d_max``.
2. **Per-rack solve** — the ordinary ``Placer.solve`` runs over each
   rack's chain subset. Remote chains are handed down with their
   ``d_max`` already shrunk by the fabric RTT, so the per-rack latency
   guard still protects the *end-to-end* SLO. Each rack's rate LP also
   holds its chains, together, to what the inter-rack links on its
   route leave (:func:`~repro.core.partition.uplink_headroom`): the
   racks solved before it count at their rates, the racks after it at
   their floors. The fabric never promises more than its links carry,
   and a partition whose floors fit is never refused for a link. The
   rack solves run serially: the win is the decomposition into ~10 ms
   sub-problems, and a pool hand-off per rack measured slower than
   solving them in turn (``docs/performance.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.partition import (
    PartitionResult,
    RackRoute,
    partition_chains,
    uplink_headroom,
)
from repro.core.placement import ChainPlacement
from repro.core.placer import (
    MultiRackOptions,
    PlacementReport,
    PlacementRequest,
    Placer,
    PlacerConfig,
)
from repro.exceptions import PartitionError, PlacementError
from repro.hw.multirack import MultiRackTopology
from repro.obs import get_registry
from repro.profiles.defaults import ProfileDatabase, default_profiles


@dataclass
class MultiRackPlacement:
    """The fabric-wide result: per-rack reports + the merged view.

    ``rates`` is the per-chain rate map of the per-rack solves, merged.
    ``remote`` maps each off-ingress chain to its fabric route; its RTT
    is the extra latency every delivered packet of that chain carries.
    """

    partition: PartitionResult
    reports: Dict[str, PlacementReport] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    remote: Dict[str, RackRoute] = field(default_factory=dict)
    ingress: str = ""
    feasible: bool = False
    infeasible_reason: Optional[str] = None

    @property
    def chains(self) -> List[ChainPlacement]:
        out: List[ChainPlacement] = []
        for rack in self.reports:
            out.extend(self.reports[rack].placement.chains)
        return out

    @property
    def aggregate_rate(self) -> float:
        return sum(self.rates.values())

    def placement_for(self, rack: str):
        return self.reports[rack].placement

    def rack_of(self, chain_name: str) -> str:
        return self.partition.assignment[chain_name]

    def rate_of(self, chain_name: str) -> float:
        return self.rates.get(chain_name, 0.0)

    def route_of(self, chain_name: str) -> Optional[RackRoute]:
        return self.remote.get(chain_name)

    def rtt_of(self, chain_name: str) -> float:
        route = self.remote.get(chain_name)
        return route.rtt_us if route is not None else 0.0

    def describe(self) -> str:
        lines = [
            f"MultiRackPlacement feasible={self.feasible} "
            f"racks={len(self.reports)} ingress={self.ingress} "
            f"aggregate={self.aggregate_rate:.0f} Mbps"
        ]
        if self.infeasible_reason:
            lines.append(f"  reason: {self.infeasible_reason}")
        lines.append("  " + self.partition.describe().replace("\n", "\n  "))
        for rack in sorted(self.reports):
            body = self.reports[rack].placement.describe()
            lines.append(f"  -- rack {rack} --")
            lines.append("  " + body.replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass
class MultiRackReport:
    """What one hierarchical solve produced."""

    placement: MultiRackPlacement
    seconds: float
    strategy: str


@dataclass
class MultiRackPlacer:
    """Partition-then-place over a :class:`MultiRackTopology`.

    ``solve`` accepts any :class:`PlacementRequest`; one without
    ``multi_rack`` options gets the defaults (no pins).
    """

    fabric: MultiRackTopology
    profiles: ProfileDatabase = field(default_factory=default_profiles)
    config: PlacerConfig = field(default_factory=PlacerConfig)

    # -- the hierarchical solve -------------------------------------------

    def solve(self, request: PlacementRequest) -> MultiRackReport:
        if request.base_placement is not None or request.failed_devices:
            raise PlacementError(
                "multi-rack solves do not take base_placement or "
                "failed_devices; re-partitioning handles both — submit a "
                "fresh request (pin chains with rack_pins to keep homes)"
            )
        started = time.perf_counter()
        opts = request.multi_rack or MultiRackOptions()
        fabric = self.fabric
        if opts.ingress and opts.ingress != fabric.ingress:
            fabric = replace(fabric, ingress=opts.ingress)
        strategy = request.strategy or self.config.strategy

        try:
            partition = partition_chains(
                list(request.chains),
                fabric,
                self.profiles,
                rack_pins=opts.pins(),
                packet_bits=self.config.packet_bits,
            )
        except PartitionError as exc:
            placement = MultiRackPlacement(
                partition=PartitionResult(),
                ingress=fabric.ingress,
                feasible=False,
                infeasible_reason=str(exc),
            )
            return MultiRackReport(
                placement=placement,
                seconds=time.perf_counter() - started,
                strategy=strategy,
            )

        remote = partition.remote_chains(fabric.ingress)
        rack_chains: Dict[str, list] = {}
        for chain in request.chains:
            handed = chain
            if chain.name in remote:
                handed = chain.with_slo(replace(
                    chain.slo,
                    d_max=remote[chain.name].charge_rtt(chain.slo.d_max),
                ))
            rack_chains.setdefault(
                partition.rack_of(chain.name), []
            ).append(handed)

        # Racks solve in name order. Each one's rate LP gets the link row
        # of what its route's links leave after the racks solved before it
        # (at their rates) and the racks after it (at their floors, which
        # the partition fitted on every link).
        reports: Dict[str, PlacementReport] = {}
        carried: Dict[str, float] = {
            rack: sum(chain.slo.t_min for chain in chains)
            for rack, chains in rack_chains.items()
        }
        for rack in sorted(rack_chains):
            topology = self.fabric.rack(rack)
            topology.uplink = uplink_headroom(
                fabric, partition.routes, rack, carried,
            )
            reports[rack] = Placer(
                topology=topology,
                profiles=self.profiles,
                config=self.config,
            ).solve(
                PlacementRequest(
                    chains=rack_chains[rack],
                    strategy=request.strategy,
                    objective=request.objective,
                )
            )
            carried[rack] = sum(reports[rack].placement.rates.values())

        placement = MultiRackPlacement(
            partition=partition,
            reports=reports,
            remote=remote,
            ingress=fabric.ingress,
        )
        placement.rates = {}
        placement.feasible = True
        for rack in reports:
            per_rack = reports[rack].placement
            placement.rates.update(per_rack.rates)
            if not per_rack.feasible:
                placement.feasible = False
                reason = per_rack.infeasible_reason or "per-rack solve failed"
                placement.infeasible_reason = f"rack {rack}: {reason}"
                break

        seconds = time.perf_counter() - started
        get_registry().histogram("multirack.solve.seconds").observe(seconds)
        return MultiRackReport(
            placement=placement,
            seconds=seconds,
            strategy=strategy,
        )


__all__ = [
    "MultiRackPlacement",
    "MultiRackPlacer",
    "MultiRackReport",
]
