"""Fabric runtime: stitch racks together and replay a fabric.

The per-rack engines (:class:`~repro.sim.runtime.DeployedRack`,
:class:`~repro.sim.traffic.TrafficEngine`) stay the unit of execution;
this module owns what spans racks outside the admission core (which
:class:`~repro.sim.admission.AdmissionCore` does for any topology, and
with it every online and chaos run):

* **Stitching** — a chain homed away from the ingress rack gets an
  inter-rack hop installed on its home rack's dataplane
  (:meth:`DeployedRack.set_interrack_hop`): every delivered packet
  carries the route's round trip, and when the assigned rates crossing a
  link exceed its capacity the overload becomes a deterministic drop
  fraction (link capacity is a drop source, not a queue). The admission
  core reinstalls these hops after every accepted decision.
* **Traffic** — :func:`run_fabric_traffic` places hierarchically and
  replays every rack.
* **SLO accounting** — per-rack engines hold chains with ``d_max``
  already shrunk by the fabric RTT, and the dataplane stamps that RTT
  onto every packet. Merged rows therefore restore the *original*
  end-to-end ``d_max``, so the latency column and its bound describe
  the same quantity (no double charge).

Everything stays deterministic given (chains, fabric, seed): rack order
is sorted, and link drops reuse the seq-hash discipline via a
link-salted seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.hierarchy import MultiRackPlacer, MultiRackReport
from repro.core.partition import RackRoute
from repro.core.placer import PlacerConfig, PlacementRequest
from repro.exceptions import PlacementError
from repro.hw.multirack import MultiRackTopology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, get_registry
from repro.profiles.defaults import default_profiles
from repro.sim.runtime import DeployedRack
from repro.sim.traffic import (
    TrafficEngine,
    TrafficReport,
    TrafficSpec,
    configure_rack_queueing,
)


# ---------------------------------------------------------------------------
# inter-rack hop installation (shared by traffic + admission paths)
# ---------------------------------------------------------------------------


def link_drop_fractions(
    fabric: MultiRackTopology,
    remote: Dict[str, RackRoute],
    rates: Dict[str, float],
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Per-link overload drop fraction at the given rate assignment.

    A link carrying more assigned rate than its capacity drops the
    excess fraction of every packet crossing it — the dataplane face of
    the solver's link-capacity constraint. Loads land on the
    ``interrack.link.load_mbps`` gauge so saturation is observable
    before it becomes packet loss.
    """
    registry = registry if registry is not None else get_registry()
    load: Dict[str, float] = {}
    for chain, route in remote.items():
        rate = rates.get(chain, 0.0)
        for link in route.links:
            load[link] = load.get(link, 0.0) + rate
    drops: Dict[str, float] = {}
    for link in fabric.links:
        carried = load.get(link.name, 0.0)
        registry.gauge("interrack.link.load_mbps", link=link.name).set(carried)
        if carried > link.capacity_mbps > 0:
            drops[link.name] = 1.0 - link.capacity_mbps / carried
    return drops


def route_hop(route: RackRoute,
              drops: Dict[str, float]) -> Tuple[str, float]:
    """Collapse a multi-link route into one hop: the compounded drop
    probability, attributed (and hash-salted) to the most-lossy link —
    the binding one — with ties broken by path order."""
    survive = 1.0
    worst_link = route.links[0]
    worst_drop = -1.0
    for name in route.links:
        drop = drops.get(name, 0.0)
        survive *= 1.0 - drop
        if drop > worst_drop:
            worst_drop = drop
            worst_link = name
    return worst_link, 1.0 - survive


def install_fabric_hops(
    rack: DeployedRack,
    chain_names: Sequence[str],
    remote: Dict[str, RackRoute],
    drops: Dict[str, float],
) -> None:
    """(Re)install inter-rack hops for a home rack's remote chains."""
    rack.clear_interrack_hops()
    for chain in sorted(chain_names):
        route = remote.get(chain)
        if route is None or not route.links:
            continue
        link, drop = route_hop(route, drops)
        rack.set_interrack_hop(
            chain, link, route.latency_us, drop_fraction=drop,
        )


# ---------------------------------------------------------------------------
# fabric traffic replay
# ---------------------------------------------------------------------------


@dataclass
class FabricTrafficReport:
    """One fabric-wide traffic replay: the hierarchical solve + the
    merged per-chain table (rows carry end-to-end ``d_max``)."""

    solve: MultiRackReport
    report: TrafficReport
    assignment: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def as_dict(self) -> dict:
        payload = self.report.as_dict()
        payload["racks"] = dict(sorted(self.assignment.items()))
        payload["mode"] = self.solve.mode
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def describe(self) -> str:
        lines = [self.solve.placement.partition.describe()]
        for chain, route in sorted(self.solve.placement.remote.items()):
            lines.append(
                f"  {chain}: via {'+'.join(route.links)} "
                f"(+{route.rtt_us:g} µs RTT)"
            )
        lines.append(self.report.describe())
        return "\n".join(lines)

    def render(self) -> str:
        return self.describe()


def run_fabric_traffic(
    spec: TrafficSpec,
    fabric: MultiRackTopology,
    registry: Optional[MetricsRegistry] = None,
) -> FabricTrafficReport:
    """Place hierarchically, deploy one rack per partition, stitch
    remote chains over the inter-rack links, and replay every chain.

    Racks replay serially in sorted order, each in this process.
    """
    chains = spec.build_chains()
    profiles = default_profiles()
    placer = MultiRackPlacer(
        fabric, profiles, PlacerConfig(strategy=spec.strategy)
    )
    solve = placer.solve(PlacementRequest.multi_rack(
        chains, objective=spec.objective,
    ))
    placement = solve.placement
    if not placement.feasible:
        raise PlacementError(
            "traffic replay needs a feasible placement: "
            f"{placement.infeasible_reason}"
        )
    d_max = {chain.name: chain.slo.d_max for chain in chains}
    drops = link_drop_fractions(
        fabric, placement.remote, placement.rates, registry
    )

    merged = TrafficReport()
    started = time.perf_counter()
    for rack in sorted(placement.reports):
        topology = fabric.rack(rack)
        per_rack = placement.placement_for(rack)
        artifacts = MetaCompiler(
            topology=topology, profiles=profiles
        ).compile_placement(per_rack)
        deployed = DeployedRack(
            topology, artifacts, profiles,
            seed=spec.seed, registry=registry,
        )
        configure_rack_queueing(deployed, per_rack.chains, per_rack.rates,
                                spec.queueing)
        install_fabric_hops(
            deployed, [cp.name for cp in per_rack.chains],
            placement.remote, drops,
        )
        engine = TrafficEngine(
            deployed, per_rack,
            flows_per_chain=spec.flows_per_chain,
            batch_size=spec.batch_size,
        )
        for row in engine.run(spec.packets_per_chain).chains:
            merged.chains.append(row.with_d_max(
                d_max.get(row.chain_name, float("inf"))
            ))
    merged.chains.sort(key=lambda row: row.chain_name)
    merged.run_wall_seconds = time.perf_counter() - started
    return FabricTrafficReport(
        solve=solve,
        report=merged,
        assignment=dict(placement.partition.assignment),
    )


__all__ = [
    "FabricTrafficReport",
    "install_fabric_hops",
    "link_drop_fractions",
    "route_hop",
    "run_fabric_traffic",
]
