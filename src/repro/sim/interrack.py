"""Fabric runtime: stitch racks together, replay and fault a fabric.

The per-rack engines (:class:`~repro.sim.runtime.DeployedRack`,
:class:`~repro.sim.traffic.TrafficEngine`,
:class:`~repro.sim.faults.ChaosEngine`) stay the unit of execution; this
module owns what spans racks outside online admission (which
:class:`~repro.sim.admission.AdmissionCore` does for any topology):

* **Stitching** — a chain homed away from the ingress rack gets an
  inter-rack hop installed on its home rack's dataplane
  (:meth:`DeployedRack.set_interrack_hop`): every delivered packet
  carries the route's round trip, and when the assigned rates crossing a
  link exceed its capacity the overload becomes a deterministic drop
  fraction (link capacity is a drop source, not a queue). The admission
  core reinstalls these hops after every accepted decision.
* **Traffic and chaos** — :func:`run_fabric_traffic` places
  hierarchically and replays every rack; :func:`run_fabric_chaos` runs
  one guarded chaos engine per rack with the timeline split by target.
* **SLO accounting** — per-rack engines hold chains with ``d_max``
  already shrunk by the fabric RTT, and the dataplane stamps that RTT
  onto every packet. Merged rows therefore restore the *original*
  end-to-end ``d_max``, so the latency column and its bound describe
  the same quantity (no double charge).

Everything stays deterministic given (chains, fabric, seed, events):
rack order is sorted, and link drops reuse the seq-hash discipline via a
link-salted seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.core.hierarchy import MultiRackPlacer, MultiRackReport
from repro.core.partition import RackRoute, partition_chains
from repro.core.placer import PlacerConfig, PlacementRequest
from repro.exceptions import (
    FaultInjectionError,
    PartitionError,
    PlacementError,
    TopologyError,
)
from repro.hw.multirack import MultiRackTopology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, get_registry
from repro.profiles.defaults import default_profiles
from repro.sim.faults import (
    ChaosEngine,
    ChaosReport,
    ChaosSpec,
    FaultTimeline,
)
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
        configure_rack_queueing(deployed, per_rack, spec.queueing)
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


# ---------------------------------------------------------------------------
# fabric chaos: one guarded engine per rack, timeline split by target
# ---------------------------------------------------------------------------


class _StitchedChaosEngine(ChaosEngine):
    """A per-rack chaos engine that reinstalls its inter-rack hops on
    every (re)deploy, so stitching survives guard replans."""

    def __init__(self, spec: ChaosSpec, *, fabric_remote, fabric_drops,
                 **rack_slice):
        self._fabric_remote = dict(fabric_remote)
        self._fabric_drops = dict(fabric_drops)
        super().__init__(spec, **rack_slice)

    def _deploy(self, placement) -> None:
        super()._deploy(placement)
        install_fabric_hops(
            self.rack,
            [cp.name for cp in placement.chains],
            self._fabric_remote,
            self._fabric_drops,
        )


@dataclass
class FabricChaosReport:
    """One fabric chaos run: per-rack guarded reports side by side.

    Fault phases are rack-local (each rack's guard reacts to its own
    timeline slice), so the reports stay per rack instead of pretending
    a merged phase sequence exists. ``ok`` is the conjunction.
    """

    seed: int
    assignment: Dict[str, str] = field(default_factory=dict)
    racks: Dict[str, ChaosReport] = field(default_factory=dict)
    #: timeline events addressed to racks that host no chains — applied
    #: nowhere, surfaced so a typo'd target is visible.
    dropped_events: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.racks.values())

    @property
    def violations(self) -> int:
        return sum(r.violations for r in self.racks.values())

    @property
    def replans(self) -> int:
        return sum(r.replans for r in self.racks.values())

    @property
    def degradations(self) -> int:
        return sum(r.degradations for r in self.racks.values())

    @property
    def total_injected(self) -> int:
        return sum(r.total_injected for r in self.racks.values())

    @property
    def total_delivered(self) -> int:
        return sum(r.total_delivered for r in self.racks.values())

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "assignment": dict(sorted(self.assignment.items())),
            "dropped_events": list(self.dropped_events),
            "racks": {
                rack: report.as_dict()
                for rack, report in sorted(self.racks.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"fabric chaos report (seed={self.seed})"]
        for chain, rack in sorted(self.assignment.items()):
            lines.append(f"  {chain} -> {rack}")
        for entry in self.dropped_events:
            lines.append(f"  dropped (rack hosts no chains): {entry}")
        for rack in sorted(self.racks):
            lines.append(f"-- rack {rack} --")
            lines.append(self.racks[rack].render())
        lines.append(
            f"fabric totals: injected={self.total_injected} "
            f"delivered={self.total_delivered} "
            f"violations={self.violations} "
            f"degradations={self.degradations} replans={self.replans}"
        )
        return "\n".join(lines)

    def describe(self) -> str:
        return self.render()


def run_fabric_chaos(
    spec: ChaosSpec,
    fabric: MultiRackTopology,
    registry: Optional[MetricsRegistry] = None,
) -> FabricChaosReport:
    """Partition, stitch, and run one guarded chaos engine per rack.

    The fault timeline splits by each target's home rack (offsets then
    count that rack's injected packets). Chains keep their *original*
    ``d_max``: the partitioner already charged the inter-rack RTT when
    choosing homes, and the dataplane stamps that RTT onto every packet,
    so the guard's windowed tail and the phase tables compare the full
    path latency against the full budget — no double charge.
    """
    chains = spec.build_chains()
    profiles = default_profiles()
    try:
        partition = partition_chains(
            chains, fabric, profiles,
            packet_bits=PlacerConfig(strategy=spec.strategy).packet_bits,
        )
    except PartitionError as exc:
        raise PlacementError(
            f"chaos replay needs a feasible partition: {exc}"
        ) from exc
    remote = partition.remote_chains(fabric.ingress)
    # link drops from the t_min floors (the partitioner's own capacity
    # vocabulary); per-rack LP rates are not known fabric-wide here.
    floors = {chain.name: chain.slo.t_min for chain in chains}
    drops = link_drop_fractions(fabric, remote, floors, registry)

    by_rack: Dict[str, List[NFChain]] = {}
    for chain in chains:
        by_rack.setdefault(partition.rack_of(chain.name), []).append(chain)
    events_by_rack: Dict[str, list] = {}
    dropped: List[str] = []
    for event in spec.timeline.sorted_events():
        try:
            rack = fabric.rack_of_device(event.target)
        except TopologyError as exc:
            raise FaultInjectionError(str(exc)) from exc
        if rack in by_rack:
            events_by_rack.setdefault(rack, []).append(event)
        else:
            dropped.append(f"{rack}: {event.describe()}")

    report = FabricChaosReport(
        seed=spec.seed,
        assignment=dict(partition.assignment),
        dropped_events=dropped,
    )
    for rack in sorted(by_rack):
        timeline = FaultTimeline(
            events=tuple(events_by_rack.get(rack, ())), seed=spec.seed,
        )
        report.racks[rack] = _StitchedChaosEngine(
            spec,
            fabric_remote=remote,
            fabric_drops=drops,
            chains=by_rack[rack],
            timeline=timeline,
            topology=fabric.rack(rack),
            registry=registry,
        ).run()
    return report


__all__ = [
    "FabricChaosReport",
    "FabricTrafficReport",
    "install_fabric_hops",
    "link_drop_fractions",
    "route_hop",
    "run_fabric_chaos",
    "run_fabric_traffic",
]
