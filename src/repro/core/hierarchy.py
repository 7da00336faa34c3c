"""Hierarchical multi-rack placement: partition, then place per rack.

:class:`MultiRackPlacer` is the fabric-level twin of the single-rack
:class:`~repro.core.placer.Placer`, and a fabric's one cold solve:
``repro place`` calls it, and so does every fabric bootstrap of the
:class:`~repro.sim.admission.AdmissionCore` (traffic, lifecycle, chaos,
serve). ``solve`` runs in three stages:

1. **Partition** — :func:`~repro.core.partition.partition_chains`
   assigns every chain a home rack (greedy bin-pack + LP refinement),
   charging inter-rack round trips against each chain's ``d_max``.
2. **Per-rack solve** — the ordinary ``Placer.solve`` runs over each
   rack's chain subset. Remote chains are handed down with their
   ``d_max`` already shrunk by the fabric RTT, so the per-rack latency
   guard still protects the *end-to-end* SLO. The rack solves run
   serially: the win is the decomposition into ~10 ms sub-problems,
   and a pool hand-off per rack measured slower than solving them in
   turn (``docs/performance.md``).
3. **Link post-pass** — assigned rates of remote chains are summed per
   inter-rack link; overloads shed marginal rate (never below the
   ``t_min`` floor) deterministically so the fabric cannot promise more
   than its links carry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.partition import (
    PartitionResult,
    RackRoute,
    link_loads,
    partition_chains,
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

    ``rates`` is the authoritative per-chain rate map *after* the link
    capacity post-pass (per-rack placements are updated in place to
    match). ``remote`` maps each off-ingress chain to its fabric route;
    its RTT is the extra latency every delivered packet of that chain
    carries.
    """

    partition: PartitionResult
    reports: Dict[str, PlacementReport] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    remote: Dict[str, RackRoute] = field(default_factory=dict)
    ingress: str = ""
    feasible: bool = False
    infeasible_reason: Optional[str] = None
    link_shed_mbps: Dict[str, float] = field(default_factory=dict)

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
        for link, shed in sorted(self.link_shed_mbps.items()):
            lines.append(f"  link {link}: shed {shed:.0f} Mbps marginal")
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

        racks = sorted(rack_chains)
        reports = {
            rack: Placer(
                topology=self.fabric.rack(rack),
                profiles=self.profiles,
                config=self.config,
            ).solve(
                PlacementRequest(
                    chains=rack_chains[rack],
                    strategy=request.strategy,
                    objective=request.objective,
                )
            )
            for rack in racks
        }

        placement = MultiRackPlacement(
            partition=partition,
            reports=reports,
            remote=remote,
            ingress=fabric.ingress,
        )
        placement.rates = {}
        placement.feasible = True
        for rack in racks:
            per_rack = reports[rack].placement
            placement.rates.update(per_rack.rates)
            if not per_rack.feasible:
                placement.feasible = False
                reason = per_rack.infeasible_reason or "per-rack solve failed"
                placement.infeasible_reason = f"rack {rack}: {reason}"
                break
        if placement.feasible:
            self._enforce_link_capacity(placement, fabric, request)

        seconds = time.perf_counter() - started
        get_registry().histogram("multirack.solve.seconds").observe(seconds)
        return MultiRackReport(
            placement=placement,
            seconds=seconds,
            strategy=strategy,
        )

    # -- stage 3: inter-rack link capacity post-pass ----------------------

    def _enforce_link_capacity(self, placement, fabric, request) -> None:
        """Shed marginal rate (down to ``t_min`` floors) on overloaded
        links; floors alone exceeding a link turn the solve infeasible."""
        floors = {
            chain.name: chain.slo.t_min for chain in request.chains
        }
        remote = dict(sorted(placement.remote.items()))
        floor_sums = link_loads(remote, floors)
        registry = get_registry()
        for link in fabric.links:
            load = link_loads(remote, placement.rates).get(link.name)
            if load is None:  # no chain crosses this link
                continue
            registry.gauge("interrack.link.load_mbps", link=link.name).set(load)
            if load <= link.capacity_mbps:
                continue
            floor_sum = floor_sums[link.name]
            if floor_sum > link.capacity_mbps:
                placement.feasible = False
                placement.infeasible_reason = (
                    f"link {link.name} capacity exhausted: chain floors "
                    f"need {floor_sum:g} Mbps, link carries "
                    f"{link.capacity_mbps:g} Mbps"
                )
                return
            marginal = load - floor_sum
            budget = link.capacity_mbps - floor_sum
            scale = budget / marginal if marginal > 0 else 0.0
            shed = 0.0
            for chain, route in remote.items():
                if link.name not in route.links:
                    continue
                old = placement.rates[chain]
                new = floors[chain] + (old - floors[chain]) * scale
                shed += old - new
                placement.rates[chain] = new
                rack = placement.rack_of(chain)
                placement.reports[rack].placement.rates[chain] = new
            placement.link_shed_mbps[link.name] = shed
            registry.counter("interrack.link.shed_mbps", link=link.name).inc(
                shed
            )


__all__ = [
    "MultiRackPlacement",
    "MultiRackPlacer",
    "MultiRackReport",
]
