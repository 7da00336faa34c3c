"""Fabric runtime: deploy, drive, and evolve chains across racks.

The single-rack engines (:class:`~repro.sim.admission.AdmissionCore`,
:class:`~repro.sim.traffic.TrafficEngine`) stay the unit of execution; a
fabric run composes one of them per rack and owns everything that spans
racks:

* **Stitching** — a chain homed away from the ingress rack gets an
  inter-rack hop installed on its home rack's dataplane
  (:meth:`DeployedRack.set_interrack_hop`): every delivered packet
  carries the route's round trip, and when the assigned rates crossing a
  link exceed its capacity the overload becomes a deterministic drop
  fraction (link capacity is a drop source, not a queue).
* **Admission** — :class:`FabricAdmissionCore` mirrors the
  ``AdmissionCore`` surface (``bootstrap`` / ``process`` / ``run_phase``
  / ``state_digest``) so the lifecycle engine and the serve daemon drive
  a fabric exactly like a rack. Arrivals spill across candidate racks in
  route order; a ``scale`` the home rack (or its route) cannot absorb
  migrates the chain to another rack; the last chain departing a rack
  tears that rack's core down.
* **SLO accounting** — per-rack cores hold chains with ``d_max`` already
  shrunk by the fabric RTT, and the dataplane stamps that RTT onto every
  packet. Merged phase rows therefore restore the *original* end-to-end
  ``d_max``, so the latency column and its bound describe the same
  quantity (no double charge).

Everything stays deterministic given (chains, fabric, seed, events):
every rack core owns its rack in-process, rack order is sorted, and link
drops reuse the seq-hash discipline via a link-salted seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain, chains_from_spec
from repro.chain.slo import SLO
from repro.core.hierarchy import MultiRackPlacer, MultiRackReport
from repro.core.partition import RackRoute, fabric_routes, partition_chains
from repro.core.placement import ChainPlacement, Placement
from repro.core.placer import PlacerConfig, PlacementRequest
from repro.exceptions import (
    FaultInjectionError,
    LifecycleError,
    PartitionError,
    PlacementError,
    TopologyError,
)
from repro.hw.multirack import MultiRackTopology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, get_registry, with_own_registry
from repro.profiles.defaults import default_profiles
from repro.sim.admission import (
    LIFECYCLE_ACTIONS,
    AdmissionCore,
    AdmissionDecision,
    ChainEvent,
)
from repro.sim.faults import (
    ChaosEngine,
    ChaosReport,
    ChaosSpec,
    FaultTimeline,
    PhaseReport,
)
from repro.sim.runtime import DeployedRack
from repro.sim.traffic import (
    RunSpec,
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


# ---------------------------------------------------------------------------
# merged live placement view
# ---------------------------------------------------------------------------


@dataclass
class FabricPlacement:
    """The live merged view over per-rack cores' placements.

    Quacks enough like :class:`~repro.core.placement.Placement` for the
    front-ends (``chains``, ``rates``, ``feasible``, ``describe``) while
    carrying the fabric bookkeeping the digest needs.
    """

    assignment: Dict[str, str] = field(default_factory=dict)
    racks: Dict[str, Placement] = field(default_factory=dict)
    remote: Dict[str, RackRoute] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    feasible: bool = True
    infeasible_reason: Optional[str] = None

    @property
    def chains(self) -> List[ChainPlacement]:
        out: List[ChainPlacement] = []
        for rack in sorted(self.racks):
            out.extend(self.racks[rack].chains)
        out.sort(key=lambda cp: cp.name)
        return out

    @property
    def aggregate_rate(self) -> float:
        return sum(self.rates.values())

    def rate_of(self, chain_name: str) -> float:
        return self.rates.get(chain_name, 0.0)

    def describe(self) -> str:
        lines = [f"fabric placement: {len(self.assignment)} chains "
                 f"on {len(self.racks)} racks"]
        for chain, rack in sorted(self.assignment.items()):
            route = self.remote.get(chain)
            suffix = (f" (+{route.rtt_us:g} µs RTT via "
                      f"{'+'.join(route.links)})" if route else "")
            lines.append(f"  {chain} -> {rack}{suffix}")
        for rack in sorted(self.racks):
            body = self.racks[rack].describe()
            lines.append(f"  -- rack {rack} --")
            lines.append("  " + body.replace("\n", "\n  "))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fabric admission core
# ---------------------------------------------------------------------------


class FabricAdmissionCore:
    """The multi-rack twin of :class:`AdmissionCore`: same surface, one
    subordinate core per occupied rack.

    Division of labor: each rack core owns its rack (placement, deploy,
    traffic cursors, fault projection) and counts its own admission
    checks; this core owns everything cross-rack — the chain→rack
    assignment, inter-rack hop installation, arrival spill, scale-driven
    migration, rack teardown, and the merged phase/digest views.
    Every rack core holds its rack in-process, so a fabric core pickles
    whole for serve checkpoints.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
        full_resolve: bool = False,
    ):
        topology = spec.build_topology()
        if not isinstance(topology, MultiRackTopology):
            raise LifecycleError(
                "FabricAdmissionCore needs a MultiRackTopology "
                f"(got {type(topology).__name__}); use AdmissionCore "
                "for a single rack"
            )
        initial_chains = spec.build_chains()
        if not initial_chains:
            raise LifecycleError(
                "admission needs at least one initial chain "
                "(an empty rack has nothing to deploy)"
            )
        self.spec = spec
        self.initial_chains = initial_chains
        self.fabric = topology
        self.topology = topology
        self.obs = registry if registry is not None else get_registry()
        self.full_resolve = full_resolve

        #: ingress→rack routes for every rack, fixed by the fabric.
        self.routes: Dict[str, RackRoute] = fabric_routes(self.fabric)
        #: one subordinate core per rack that currently hosts chains.
        self.cores: Dict[str, AdmissionCore] = {}
        self.assignment: Dict[str, str] = {}
        #: original end-to-end ``d_max`` per chain (the rack cores hold
        #: the RTT-shrunk bound; reports restore this one).
        self._d_max: Dict[str, float] = {}
        self.active: List[NFChain] = []
        self.rates: Dict[str, float] = {}
        self.placement: Optional[FabricPlacement] = None
        #: the rack cores' fault probes, merged (the daemon's snapshot
        #: reads it as it does a single-rack core's)
        self.fault_state: Dict[str, float] = {}

    # -- candidate ordering -------------------------------------------------

    def _candidates(self) -> List[str]:
        """Racks in spill-preference order: ingress, then by route
        latency (ties on name) — the partitioner's static order."""
        others = sorted(
            (r for r in self.fabric.racks if r != self.fabric.ingress),
            key=lambda r: (self.routes[r].latency_us, r),
        )
        return [self.fabric.ingress] + others

    def _shrunk_d_max(self, d_max: float, rack: str) -> float:
        if rack == self.fabric.ingress or math.isinf(d_max):
            return d_max
        return d_max - self.routes[rack].rtt_us

    def _handed_chain(self, chain: NFChain, rack: str,
                      d_max: float) -> NFChain:
        """The chain as the rack core should hold it (RTT charged)."""
        slo = chain.slo
        return chain.with_slo(SLO(
            t_min=slo.t_min, t_max=slo.t_max,
            d_max=self._shrunk_d_max(d_max, rack),
        ))

    # -- subordinate core lifecycle -----------------------------------------

    def _new_core(self, rack: str,
                  chains: List[NFChain]) -> AdmissionCore:
        return AdmissionCore(
            self.spec,
            chains=chains,
            topology=self.fabric.rack(rack),
            registry=self.obs,
            full_resolve=self.full_resolve,
        )

    @staticmethod
    def _placement_devices(placement) -> Tuple[str, ...]:
        return tuple(sorted({
            assigned.device
            for cp in placement.chains
            for assigned in cp.assignment.values()
        }))

    def _teardown_rack(self, rack: str) -> Tuple[str, ...]:
        """Drop a rack core entirely (its last chain left)."""
        core = self.cores.pop(rack)
        for chain in core.active:
            core.rack.forget_chain(chain.name)
        self.obs.counter("lifecycle.rack_teardowns").inc()
        return self._placement_devices(core.placement)

    # -- cross-rack consistency ---------------------------------------------

    def _remote(self) -> Dict[str, RackRoute]:
        return {
            chain: self.routes[rack]
            for chain, rack in self.assignment.items()
            if rack != self.fabric.ingress
        }

    def _sync(self) -> None:
        """Rebuild the merged views + reinstall hops after any change."""
        self.active = sorted(
            (c for core in self.cores.values() for c in core.active),
            key=lambda c: c.name,
        )
        self.rates = {}
        racks: Dict[str, Placement] = {}
        for rack in sorted(self.cores):
            core = self.cores[rack]
            self.rates.update(core.rates)
            racks[rack] = core.placement
        remote = self._remote()
        drops = link_drop_fractions(
            self.fabric, remote, self.rates, self.obs
        )
        for rack in sorted(self.cores):
            core = self.cores[rack]
            install_fabric_hops(
                core.rack, [c.name for c in core.active], remote, drops,
            )
        self.placement = FabricPlacement(
            assignment=dict(self.assignment),
            racks=racks,
            remote=remote,
            rates=dict(self.rates),
        )
        self.obs.gauge("lifecycle.active_chains").set(len(self.active))

    def _link_floor_check(self, chain_name: str, rack: str,
                          t_min: float) -> Optional[str]:
        """Would ``chain_name``'s floor at ``t_min`` over-commit a link
        on its route? Returns the binding reason, or None."""
        if rack == self.fabric.ingress:
            return None
        route = self.routes[rack]
        floors: Dict[str, float] = {}
        for other, home in self.assignment.items():
            if home == self.fabric.ingress or other == chain_name:
                continue
            for link in self.routes[home].links:
                floor = next(
                    (c.slo.t_min for c in self.active if c.name == other),
                    0.0,
                )
                floors[link] = floors.get(link, 0.0) + floor
        for link in self.fabric.links:
            if link.name not in route.links:
                continue
            committed = floors.get(link.name, 0.0) + t_min
            if committed > link.capacity_mbps:
                return (
                    f"link {link.name} capacity exhausted: floors need "
                    f"{committed:g} Mbps, link carries "
                    f"{link.capacity_mbps:g} Mbps"
                )
        return None

    # -- bootstrap ----------------------------------------------------------

    @with_own_registry
    def bootstrap(self) -> FabricPlacement:
        """Partition the initial chains, then cold-bootstrap one core
        per occupied rack (sorted order, so deterministic)."""
        try:
            partition = partition_chains(
                self.initial_chains,
                self.fabric,
                default_profiles(),
                packet_bits=PlacerConfig(
                    strategy=self.spec.strategy
                ).packet_bits,
            )
        except PartitionError as exc:
            raise PlacementError(
                f"admission needs a feasible initial placement: {exc}"
            ) from exc
        by_name = {chain.name: chain for chain in self.initial_chains}
        for chain in self.initial_chains:
            rack = partition.rack_of(chain.name)
            self.assignment[chain.name] = rack
            self._d_max[chain.name] = chain.slo.d_max
        for rack in sorted(set(self.assignment.values())):
            chains = [
                self._handed_chain(
                    by_name[name], rack, self._d_max[name]
                )
                for name in sorted(partition.chains_for(rack))
            ]
            core = self._new_core(rack, chains)
            try:
                core.bootstrap()
            except PlacementError as exc:
                raise PlacementError(f"rack {rack}: {exc}") from exc
            self.cores[rack] = core
        self._sync()
        return self.placement

    # -- admission ----------------------------------------------------------

    @with_own_registry
    def process(self, event: ChainEvent) -> AdmissionDecision:
        if event.action not in LIFECYCLE_ACTIONS:
            raise LifecycleError(
                f"unknown lifecycle action {event.action!r}; "
                f"choose from {sorted(LIFECYCLE_ACTIONS)}"
            )
        if event.action == "arrive":
            decision = self._arrive(event)
        elif event.action == "depart":
            decision = self._depart(event)
        else:
            decision = self._scale(event)
        if decision.accepted:
            self._sync()
        else:
            self.obs.gauge("lifecycle.active_chains").set(len(self.active))
        return decision

    def _reject(self, event: ChainEvent, reason: str) -> AdmissionDecision:
        """A fabric-level static rejection (counted here: no rack core
        ever saw the event)."""
        self.obs.counter("lifecycle.events", action=event.action).inc()
        self.obs.counter(
            "lifecycle.admission", decision="rejected", action=event.action,
        ).inc()
        return AdmissionDecision(
            tick=event.at, action=event.action, chain=event.chain,
            accepted=False, reason=reason,
        )

    def _arrive(self, event: ChainEvent) -> AdmissionDecision:
        if event.chain in self.assignment:
            return self._reject(
                event, f"chain {event.chain!r} is already active"
            )
        reasons: List[str] = []
        for index, rack in enumerate(self._candidates()):
            shrunk = self._shrunk_d_max(event.d_max_us, rack)
            if shrunk <= 0.0:
                reasons.append(
                    f"{rack}: d_max {event.d_max_us:g} µs <= inter-rack "
                    f"RTT {self.routes[rack].rtt_us:g} µs"
                )
                continue
            link_reason = self._link_floor_check(
                event.chain, rack, event.t_min_mbps
            )
            if link_reason is not None:
                reasons.append(f"{rack}: {link_reason}")
                continue
            handed = replace(event, d_max_us=shrunk)
            decision = self._arrive_at(rack, handed)
            if decision.accepted:
                self.assignment[event.chain] = rack
                self._d_max[event.chain] = event.d_max_us
                if index > 0:
                    self.obs.counter("lifecycle.spills").inc()
                return decision
            reasons.append(f"{rack}: {decision.reason}")
        return AdmissionDecision(
            tick=event.at, action="arrive", chain=event.chain,
            accepted=False,
            reason="no rack admitted the chain — " + "; ".join(reasons),
        )

    def _arrive_at(self, rack: str,
                   event: ChainEvent) -> AdmissionDecision:
        """One rack's admission check for an arrival (cold-bootstrapping
        the rack core when the rack is empty)."""
        core = self.cores.get(rack)
        if core is not None:
            return core.process(event)
        (chain,) = chains_from_spec(event.spec)
        chain = chain.with_slo(event.slo())
        fresh = self._new_core(rack, [chain])
        self.obs.counter("lifecycle.events", action="arrive").inc()
        try:
            report = fresh.bootstrap()
        except PlacementError as exc:
            self.obs.counter(
                "lifecycle.admission", decision="rejected", action="arrive",
            ).inc()
            return AdmissionDecision(
                tick=event.at, action="arrive", chain=event.chain,
                accepted=False, reason=str(exc),
            )
        self.cores[rack] = fresh
        self.obs.counter(
            "lifecycle.admission", decision="accepted", action="arrive",
        ).inc()
        return AdmissionDecision(
            tick=event.at, action="arrive", chain=event.chain,
            accepted=True, mode="full",
            placed=len(report.placement.chains),
            rebuilt=self._placement_devices(report.placement),
            seconds=report.seconds,
        )

    def _depart(self, event: ChainEvent) -> AdmissionDecision:
        rack = self.assignment.get(event.chain)
        if rack is None:
            return self._reject(
                event, f"no active chain named {event.chain!r}"
            )
        core = self.cores[rack]
        if len(core.active) == 1:
            if len(self.active) == 1:
                return self._reject(
                    event, "cannot depart the last active chain"
                )
            self.obs.counter("lifecycle.events", action="depart").inc()
            removed = self._teardown_rack(rack)
            del self.assignment[event.chain]
            del self._d_max[event.chain]
            self.obs.counter(
                "lifecycle.admission", decision="accepted", action="depart",
            ).inc()
            return AdmissionDecision(
                tick=event.at, action="depart", chain=event.chain,
                accepted=True, mode="teardown", removed=removed,
            )
        decision = core.process(event)
        if decision.accepted:
            del self.assignment[event.chain]
            del self._d_max[event.chain]
        return decision

    def _scale(self, event: ChainEvent) -> AdmissionDecision:
        rack = self.assignment.get(event.chain)
        if rack is None:
            return self._reject(
                event, f"no active chain named {event.chain!r}"
            )
        core = self.cores[rack]
        link_reason = self._link_floor_check(
            event.chain, rack, event.t_min_mbps
        )
        if link_reason is None:
            decision = core.process(event)
            if decision.accepted:
                return decision
        else:
            # the route itself is the binding constraint: don't even ask
            # the home rack, go straight to migration
            self.obs.counter("lifecycle.events", action="scale").inc()
            self.obs.counter(
                "lifecycle.admission", decision="rejected", action="scale",
            ).inc()
            decision = AdmissionDecision(
                tick=event.at, action="scale", chain=event.chain,
                accepted=False, reason=f"{rack}: {link_reason}",
            )
        migrated = self._migrate(event, rack)
        return migrated if migrated is not None else decision

    def _migrate(self, event: ChainEvent,
                 home: str) -> Optional[AdmissionDecision]:
        """Move a chain whose home rack cannot absorb a scale-up.

        Arrive-first, depart-second: the chain lands on the destination
        (at the scaled SLO, full re-solve there) before it leaves its
        home rack, so a failed migration leaves the fabric exactly as it
        was — the original rejection stands.
        """
        home_core = self.cores[home]
        current = next(
            c for c in home_core.active if c.name == event.chain
        )
        d_max = self._d_max[event.chain]
        t_max = (current.slo.t_max if math.isinf(event.t_max_mbps)
                 else event.t_max_mbps)
        # same lift as SLO.with_tmin: scaling past the old ceiling raises it
        t_max = max(t_max, event.t_min_mbps)
        for rack in self._candidates():
            if rack == home:
                continue
            shrunk = self._shrunk_d_max(d_max, rack)
            if shrunk <= 0.0:
                continue
            if self._link_floor_check(
                event.chain, rack, event.t_min_mbps
            ) is not None:
                continue
            moved = current.with_slo(SLO(
                t_min=event.t_min_mbps, t_max=t_max, d_max=shrunk,
            ))
            dest = self.cores.get(rack)
            fresh_dest = dest is None
            if fresh_dest:
                dest = self._new_core(rack, [moved])
                try:
                    report = dest.bootstrap()
                except PlacementError:
                    continue
                arrive = AdmissionDecision(
                    tick=event.at, action="arrive", chain=event.chain,
                    accepted=True, mode="full",
                    rebuilt=self._placement_devices(report.placement),
                )
            else:
                arrive = dest.admit(
                    ChainEvent(
                        at=event.at, action="arrive", chain=event.chain,
                        t_min_mbps=event.t_min_mbps, t_max_mbps=t_max,
                        d_max_us=shrunk,
                    ),
                    dest.active + [moved],
                )
                if not arrive.accepted:
                    continue
            # the destination holds the chain; now leave home
            if len(home_core.active) == 1:
                removed = self._teardown_rack(home)
            else:
                depart = home_core.process(ChainEvent(
                    at=event.at, action="depart", chain=event.chain,
                ))
                if not depart.accepted:  # pragma: no cover - shrink solve
                    # roll the arrival back so the chain is not doubled
                    if fresh_dest:
                        self.cores.pop(rack, None)
                    else:
                        dest.process(ChainEvent(
                            at=event.at, action="depart",
                            chain=event.chain,
                        ))
                    return None
                removed = depart.removed
            if fresh_dest:
                self.cores[rack] = dest
            self.assignment[event.chain] = rack
            self.obs.counter("lifecycle.migrations").inc()
            return AdmissionDecision(
                tick=event.at, action="scale", chain=event.chain,
                accepted=True, mode=f"migrate:{home}->{rack}",
                placed=arrive.placed,
                rebuilt=arrive.rebuilt,
                reused=arrive.reused,
                removed=removed,
            )
        return None

    # -- day-2 fault probes --------------------------------------------------

    def apply_fault(self, action: str, target: str,
                    severity: float = 1.0) -> None:
        """Route a fault probe to the rack hosting the target device
        (targets use rack-prefixed names, e.g. ``r1.server0``)."""
        rack = self.fabric.rack_of_device(target)
        core = self.cores.get(rack)
        if core is None:
            raise FaultInjectionError(
                f"rack {rack!r} hosts no chains — nothing to fault"
            )
        core.apply_fault(action, target, severity)
        self.fault_state = {}
        for name in sorted(self.cores):
            self.fault_state.update(self.cores[name].fault_state)

    # -- traffic phases ------------------------------------------------------

    def run_phase(self, label: str, packets_per_chain: int, *,
                  index: int, start_packet: int = 0) -> PhaseReport:
        """One deterministic phase over every rack (sorted order), with
        rows restored to the end-to-end ``d_max`` — measured latency
        already includes the stamped inter-rack RTT, so the bound and
        the measurement describe the same packet path."""
        merged = PhaseReport(
            index=index, label=label, mode="live",
            start_packet=start_packet, t_mins={},
        )
        for rack in sorted(self.cores):
            phase = self.cores[rack].run_phase(
                label, packets_per_chain,
                index=index, start_packet=start_packet,
            )
            merged.t_mins.update(phase.t_mins)
            for row in phase.chains:
                merged.chains.append(row.with_d_max(
                    self._d_max.get(row.chain_name, float("inf"))
                ))
        merged.chains.sort(key=lambda row: row.chain_name)
        return merged

    # -- state identity ------------------------------------------------------

    def state_digest(self) -> str:
        """Canonical digest over the fabric assignment + rack digests."""
        payload = {
            "assignment": dict(sorted(self.assignment.items())),
            "d_max": {
                name: repr(value)
                for name, value in sorted(self._d_max.items())
            },
            "racks": {
                rack: self.cores[rack].state_digest()
                for rack in sorted(self.cores)
            },
        }
        canon = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# front-end factory
# ---------------------------------------------------------------------------


def make_admission_core(spec: RunSpec, **kwargs):
    """The one switch both front-ends use: a spec naming a fabric gets a
    :class:`FabricAdmissionCore`, one naming a single rack the
    single-rack core."""
    if spec.topology.is_multi_rack:
        return FabricAdmissionCore(spec, **kwargs)
    return AdmissionCore(spec, **kwargs)


__all__ = [
    "FabricAdmissionCore",
    "FabricChaosReport",
    "FabricPlacement",
    "FabricTrafficReport",
    "install_fabric_hops",
    "link_drop_fractions",
    "make_admission_core",
    "route_hop",
    "run_fabric_chaos",
    "run_fabric_traffic",
]
