"""Shared admission core: the one place live racks mutate.

Both front-ends that evolve a deployed rack online — the batch
:class:`~repro.sim.lifecycle.LifecycleEngine` replaying a timeline and
the always-on :mod:`repro.serve` control-plane daemon — make the same
sequence of moves per transition: *propose* a new chain set, *admit* it
through the incremental :meth:`Placer.solve <repro.core.placer.Placer.\
solve>` path (``base_placement`` pins already-admitted chains at their
t_min floor), *delta-redeploy* only the devices whose generated programs
changed, and *replay* a deterministic traffic phase to observe SLO
compliance. This module owns that sequence so the two front-ends cannot
drift:

* :class:`ChainEvent` — one lifecycle transition (``arrive`` with a DSL
  spec + SLO, ``scale`` of t_min, ``depart``), shared vocabulary between
  timelines and the daemon's typed commands.
* :class:`AdmissionDecision` — the typed outcome of one admission check,
  carried verbatim into lifecycle reports and serve responses.
* :class:`AdmissionCore` — the owner state machine of any topology. A
  single rack is a one-rack fabric; each occupied rack's placement,
  deployed rack, traffic engine and replay cursors live in a private
  rack core, while the core itself spills arrivals across racks,
  migrates scale-ups, tears down emptied racks and stitches inter-rack
  hops. Rejections leave every piece of that state untouched; admitted
  chains are never evicted to make room.
* :class:`FabricPlacement` — the merged placement view the front-ends
  read (``/v1/state``).

Everything here is deterministic given (initial chains, seed, event
sequence): the same events replayed through a fresh core reproduce the
same placements, the same per-packet outcomes, and the same
:meth:`AdmissionCore.state_digest` — the property the serve daemon's
crash recovery (checkpoint-load + journal replay) is built on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain, chains_from_spec
from repro.chain.slo import SLO
from repro.core.partition import RackRoute, fabric_routes, partition_chains
from repro.core.placement import ChainPlacement, Placement
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementReport,
    PlacementRequest,
)
from repro.exceptions import (
    FaultInjectionError,
    LifecycleError,
    PartitionError,
    PlacementError,
)
from repro.hw.multirack import MultiRackTopology
from repro.hw.topology import Topology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, get_registry, with_own_registry
from repro.profiles.defaults import default_profiles
from repro.sim.faults import PhaseReport
from repro.sim.interrack import install_fabric_hops, link_drop_fractions
from repro.sim.runtime import DeployedRack
from repro.sim.traffic import (
    ChainTrafficReport,
    RunSpec,
    TrafficEngine,
    configure_rack_queueing,
)

LIFECYCLE_ACTIONS = ("arrive", "scale", "depart")

#: day-2 fault probes the serve daemon may apply to the live rack.
FAULT_PROBE_ACTIONS = ("fail", "recover", "degrade_link", "restore_link")


@dataclass(frozen=True)
class ChainEvent:
    """One lifecycle transition, fired at integer tick ``at``.

    ``arrive`` carries the chain's DSL ``spec`` (one ``chain <name>: ...``
    line whose name must equal ``chain``) plus its SLO in Mbps; ``scale``
    carries the new ``t_min_mbps`` (and optionally a new ``t_max_mbps``);
    ``depart`` needs only the chain name.
    """

    at: int
    action: str
    chain: str
    spec: str = ""
    t_min_mbps: float = 0.0
    t_max_mbps: float = float("inf")
    d_max_us: float = float("inf")

    def describe(self) -> str:
        extra = ""
        if self.action == "arrive":
            extra = f" t_min={self.t_min_mbps:g} t_max={self.t_max_mbps:g}"
        elif self.action == "scale":
            extra = f" t_min={self.t_min_mbps:g}"
        return f"t{self.at} {self.action} {self.chain}{extra}"

    def slo(self) -> SLO:
        return SLO(
            t_min=self.t_min_mbps,
            t_max=self.t_max_mbps,
            d_max=self.d_max_us,
        )


@dataclass(frozen=True)
class AdmissionDecision:
    """The typed outcome of one lifecycle event's admission check."""

    tick: int
    action: str
    chain: str
    accepted: bool
    #: the binding constraint for a rejection ("" when accepted) — the
    #: solver's infeasibility reason, verbatim.
    reason: str = ""
    mode: str = "full"
    pinned: int = 0
    placed: int = 0
    #: per-device delta-redeploy actions (empty on rejection).
    rebuilt: Tuple[str, ...] = ()
    reused: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    #: admission-solve wall clock; excluded from rendered/JSON output so
    #: reports stay byte-identical, kept for benchmarks.
    seconds: float = 0.0

    def describe(self) -> str:
        verdict = "accepted" if self.accepted else f"REJECTED: {self.reason}"
        solve = f"{self.mode}"
        if self.mode == "incremental":
            solve += f" pinned={self.pinned} placed={self.placed}"
        redeploy = ""
        if self.accepted:
            redeploy = (
                f"; redeploy rebuilt={len(self.rebuilt)} "
                f"reused={len(self.reused)} removed={len(self.removed)}"
            )
        return (
            f"t{self.tick} {self.action} {self.chain} -> {verdict} "
            f"[{solve}{redeploy}]"
        )

    def as_dict(self) -> dict:
        """The canonical wire form (``seconds`` is deliberately absent so
        serialized decisions stay byte-identical across runs)."""
        return {
            "tick": self.tick,
            "action": self.action,
            "chain": self.chain,
            "accepted": self.accepted,
            "reason": self.reason,
            "mode": self.mode,
            "pinned": self.pinned,
            "placed": self.placed,
            "rebuilt": list(self.rebuilt),
            "reused": list(self.reused),
            "removed": list(self.removed),
        }

    #: wire field -> its exact JSON type (a list is a list of str)
    _WIRE = {
        "tick": int, "action": str, "chain": str, "accepted": bool,
        "reason": str, "mode": str, "pinned": int, "placed": int,
        "rebuilt": list, "reused": list, "removed": list,
    }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdmissionDecision":
        if not isinstance(payload, dict):
            raise LifecycleError(
                f"admission decision must be an object, got {payload!r}"
            )
        unknown = set(payload) - set(cls._WIRE)
        if unknown:
            raise LifecycleError(
                f"admission decision carries unknown fields "
                f"{sorted(unknown)}"
            )
        for name, value in payload.items():
            kind = cls._WIRE[name]
            # exact types: a JSON true is not a count, "false" not a bool
            if type(value) is not kind or (kind is list and not all(
                    type(device) is str for device in value)):
                raise LifecycleError(
                    f"malformed admission decision: {name} must be "
                    f"{'a list of str' if kind is list else kind.__name__}"
                    f", got {value!r}"
                )
        try:
            return cls(**{
                name: tuple(value) if type(value) is list else value
                for name, value in payload.items()
            })
        except TypeError as exc:  # a required field is missing
            raise LifecycleError(
                f"malformed admission decision: {exc}"
            ) from exc


class _RackCore:
    """One rack's share of an :class:`AdmissionCore`.

    Owns the rack's placer and meta-compiler, its deployed rack and
    traffic engine, the per-chain replay cursors and the fault probes
    applied to it. It solves, deploys and replays; what to ask it and
    what to count is the owning core's business.
    """

    def __init__(self, spec: RunSpec, topology: Topology,
                 chains: Sequence[NFChain], obs: MetricsRegistry,
                 full_resolve: bool):
        self.spec = spec
        self.topology = topology
        self.initial_chains = list(chains)
        self.profiles = default_profiles()
        self.obs = obs
        #: re-solve every event from scratch instead of warm-starting
        #: from the running placement.
        self.full_resolve = full_resolve

        self.placer = Placer(
            topology=self.topology,
            profiles=self.profiles,
            config=PlacerConfig(strategy=spec.strategy),
        )
        self.metacompiler = MetaCompiler(
            topology=self.topology, profiles=self.profiles
        )

        # mutable run state, owned exclusively by this rack core
        self.active: List[NFChain] = []
        self.placement = None
        self.rack: Optional[DeployedRack] = None
        self.traffic: Optional[TrafficEngine] = None
        self.rates: Dict[str, float] = {}
        #: per-chain deterministic replay cursors (flow-cycle positions).
        self.cursors: Dict[str, int] = {}
        #: fault probes currently applied (action bookkeeping for
        #: snapshots and the state digest; the rack holds the live state).
        self.fault_state: Dict[str, float] = {}

    def bootstrap(self) -> PlacementReport:
        """Solve and deploy the initial chain set (a full, cold solve)."""
        initial = self.placer.solve(PlacementRequest(
            chains=self.initial_chains, strategy=self.spec.strategy,
            objective=self.spec.objective,
        ))
        if not initial.placement.feasible:
            raise PlacementError(
                "admission needs a feasible initial placement: "
                f"{initial.placement.infeasible_reason}"
            )
        self.active = list(self.initial_chains)
        self.placement = initial.placement
        self.rates = dict(initial.placement.rates)
        artifacts = self.metacompiler.compile_placement(initial.placement)
        self.rack = DeployedRack(
            self.topology, artifacts, self.profiles,
            seed=self.spec.seed, registry=self.obs,
        )
        configure_rack_queueing(
            self.rack, initial.placement, self.spec.queueing
        )
        self.traffic = TrafficEngine(
            self.rack, initial.placement,
            flows_per_chain=self.spec.flows_per_chain,
            batch_size=self.spec.batch_size,
        )
        return initial

    def propose(self, event: ChainEvent,
                arriving: Optional[NFChain] = None) -> List[NFChain]:
        """The chain set ``event`` asks of this rack (the owning core
        has already ruled out the static rejections). An arrival brings
        ``arriving``, its spec parsed once for every rack it asks."""
        if event.action == "arrive":
            return self.active + [arriving.with_slo(event.slo())]
        if event.action == "depart":
            return [c for c in self.active if c.name != event.chain]
        proposed = []
        for chain in self.active:
            if chain.name == event.chain:
                slo = chain.slo.with_tmin(event.t_min_mbps)
                if event.t_max_mbps != float("inf"):
                    slo = replace(slo, t_max=event.t_max_mbps)
                chain = chain.with_slo(slo)
            proposed.append(chain)
        return proposed

    def admit(self, event: ChainEvent,
              proposed: List[NFChain]) -> AdmissionDecision:
        """Solve the proposed chain set and, on success, delta-redeploy.

        The rack's state only advances when the solve is feasible; a
        rejection leaves the running placement, rack, and rates exactly
        as they were — admitted chains are never evicted to make room.
        """
        base = None if self.full_resolve else self.placement
        mode = "full" if base is None else "incremental"
        try:
            report = self.placer.solve(PlacementRequest(
                chains=proposed,
                strategy=self.spec.strategy,
                base_placement=base,
                objective=self.spec.objective,
            ))
        except PlacementError as exc:
            return AdmissionDecision(
                tick=event.at, action=event.action, chain=event.chain,
                accepted=False, reason=str(exc), mode=mode,
            )
        if not report.placement.feasible:
            return AdmissionDecision(
                tick=event.at, action=event.action, chain=event.chain,
                accepted=False,
                reason=report.placement.infeasible_reason or "infeasible",
                mode=report.mode,
                pinned=report.pinned_chains,
                placed=report.placed_chains,
                seconds=report.seconds,
            )
        artifacts = self.metacompiler.compile_placement(report.placement)
        delta = self.rack.redeploy(artifacts)
        # rates changed with the placement: re-derive utilization
        configure_rack_queueing(
            self.rack, report.placement, self.spec.queueing
        )
        self.traffic.placement = report.placement
        if event.action == "depart":
            self.rack.forget_chain(event.chain)
        self.active = proposed
        self.placement = report.placement
        self.rates = dict(report.placement.rates)
        return AdmissionDecision(
            tick=event.at, action=event.action, chain=event.chain,
            accepted=True,
            mode=report.mode,
            pinned=report.pinned_chains,
            placed=report.placed_chains,
            rebuilt=tuple(delta.rebuilt),
            reused=tuple(delta.reused),
            removed=tuple(delta.removed),
            seconds=report.seconds,
        )

    def apply_fault(self, action: str, target: str, severity: float) -> None:
        if action not in FAULT_PROBE_ACTIONS:
            raise FaultInjectionError(
                f"unknown fault action {action!r}; "
                f"choose from {sorted(FAULT_PROBE_ACTIONS)}"
            )
        if target == self.topology.switch.name:
            raise FaultInjectionError(
                "cannot inject faults into the ToR switch "
                "(it coordinates the rack)"
            )
        self.topology.device(target)  # raises TopologyError if unknown
        if action == "degrade_link" and not 0.0 < severity <= 1.0:
            raise FaultInjectionError(
                f"degrade_link severity must be in (0, 1], got {severity}"
            )
        if action == "fail":
            self.rack.set_device_failed(target)
            self.fault_state[f"fail:{target}"] = 1.0
        elif action == "recover":
            self.rack.set_device_failed(target, False)
            self.fault_state.pop(f"fail:{target}", None)
        elif action == "degrade_link":
            self.rack.set_drop_fraction(target, severity)
            self.fault_state[f"degrade:{target}"] = severity
        else:  # restore_link
            self.rack.set_drop_fraction(target, 0.0)
            self.fault_state.pop(f"degrade:{target}", None)

    def run_phase(self, label: str, packets_per_chain: int, *,
                  index: int, start_packet: int) -> PhaseReport:
        phase = PhaseReport(
            index=index,
            label=label,
            mode="live",
            start_packet=start_packet,
            t_mins={
                cp.name: cp.chain.slo.t_min
                for cp in self.placement.chains
            },
        )
        for cp in self.placement.chains:
            cursor = self.cursors.get(cp.name, 0)
            delivered, latency, _wall = self.traffic.replay(
                cp, cursor, packets_per_chain
            )
            self.cursors[cp.name] = cursor + packets_per_chain
            phase.chains.append(ChainTrafficReport.replayed(
                cp,
                flows=self.spec.flows_per_chain,
                injected=packets_per_chain,
                delivered=delivered,
                latency=latency,
                assigned_mbps=self.rates.get(cp.name, 0.0),
            ))
        return phase

    def state_digest(self) -> str:
        """The admitted chain set (names + SLOs), the placement's
        rendered assignment, the LP rates, the replay cursors, the rack's
        injection sequence counter and the live fault state."""
        payload = {
            "active": [
                [c.name, c.slo.t_min, c.slo.t_max, c.slo.d_max]
                for c in self.active
            ],
            "placement": self.placement.describe(),
            "rates": {k: round(v, 9) for k, v in sorted(self.rates.items())},
            "cursors": dict(sorted(self.cursors.items())),
            "rack_seq": self.rack._next_seq,
            "faults": dict(sorted(self.fault_state.items())),
        }
        canon = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class FabricPlacement:
    """The live merged view over the rack cores' placements.

    Reads like a :class:`~repro.core.placement.Placement` where the
    front-ends read one (``chains``, ``rates``, ``describe``) and adds
    the chain→rack assignment and the remote routes.
    """

    assignment: Dict[str, str] = field(default_factory=dict)
    racks: Dict[str, Placement] = field(default_factory=dict)
    remote: Dict[str, RackRoute] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)

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


class AdmissionCore:
    """Admit, place incrementally, delta-redeploy, and replay traffic.

    One core owns a whole topology. A single rack is held as a one-rack
    fabric (no links, that rack the ingress); every occupied rack gets a
    :class:`_RackCore`. This core owns everything that spans racks — the
    chain→rack assignment, arrival spill in route order, the link-floor
    check, scale-driven migration, rack teardown, inter-rack hop
    installation, the merged placement/phase views and the digest — and
    counts every admission check.

    All mutations go through :meth:`process` (lifecycle events) or
    :meth:`apply_fault` (day-2 fault probes); both front-ends serialize
    their calls — the serve daemon with a single rack-owner worker task,
    the lifecycle engine by being synchronous. Every rack lives in this
    object, in the owner's process, so the core pickles whole for serve
    checkpoints.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
        full_resolve: bool = False,
    ):
        initial_chains = spec.build_chains()
        if not initial_chains:
            raise LifecycleError(
                "admission needs at least one initial chain "
                "(an empty rack has nothing to deploy)"
            )
        fabric = spec.build_topology()
        if not isinstance(fabric, MultiRackTopology):
            fabric = MultiRackTopology(racks={spec.topology.racks[0].name:
                                              fabric})
        self.spec = spec
        self.initial_chains = initial_chains
        self.fabric = fabric
        self.obs = registry if registry is not None else get_registry()
        self.full_resolve = full_resolve

        #: ingress→rack routes for every rack, fixed by the fabric.
        self.routes: Dict[str, RackRoute] = fabric_routes(fabric)
        #: one rack core per rack that currently hosts chains.
        self.cores: Dict[str, _RackCore] = {}
        self.assignment: Dict[str, str] = {}
        #: original end-to-end ``d_max`` per chain (the rack cores hold
        #: the RTT-shrunk bound; reports restore this one).
        self._d_max: Dict[str, float] = {}
        self.active: List[NFChain] = []
        self.rates: Dict[str, float] = {}
        self.placement: Optional[FabricPlacement] = None
        #: the rack cores' fault probes, merged.
        self.fault_state: Dict[str, float] = {}

    # -- racks ----------------------------------------------------------------

    def _candidates(self) -> List[str]:
        """Racks in spill-preference order: ingress, then by route
        latency (ties on name) — the partitioner's static order."""
        others = sorted(
            (r for r in self.fabric.racks if r != self.fabric.ingress),
            key=lambda r: (self.routes[r].latency_us, r),
        )
        return [self.fabric.ingress] + others

    def _ordered(self, items: list, name) -> list:
        """A fabric orders chains by name; a single rack keeps the order
        it was given (spec order, then placement order)."""
        if len(self.fabric.racks) > 1:
            return sorted(items, key=name)
        return items

    def _shrunk_d_max(self, d_max: float, rack: str) -> float:
        if rack == self.fabric.ingress or math.isinf(d_max):
            return d_max
        return d_max - self.routes[rack].rtt_us

    def _handed_chain(self, chain: NFChain, rack: str) -> NFChain:
        """The chain as ``rack``'s core holds it (RTT charged)."""
        slo = chain.slo
        return chain.with_slo(SLO(
            t_min=slo.t_min, t_max=slo.t_max,
            d_max=self._shrunk_d_max(slo.d_max, rack),
        ))

    def _rack_core(self, rack: str, chains: List[NFChain]) -> _RackCore:
        return _RackCore(self.spec, self.fabric.rack(rack), chains,
                         self.obs, self.full_resolve)

    def _initial_assignment(self) -> Dict[str, str]:
        """Chain → rack for the initial chains, in spec order. One rack
        takes them all; a fabric partitions them."""
        if len(self.fabric.racks) == 1:
            return {c.name: self.fabric.ingress for c in self.initial_chains}
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
        return {c.name: partition.rack_of(c.name) for c in self.initial_chains}

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

    def _remote(self) -> Dict[str, RackRoute]:
        return {
            chain: self.routes[rack]
            for chain, rack in self.assignment.items()
            if rack != self.fabric.ingress
        }

    def _sync(self) -> None:
        """Rebuild the merged views + reinstall hops after any change."""
        self.active = self._ordered(
            [c for rack in sorted(self.cores)
             for c in self.cores[rack].active],
            lambda c: c.name,
        )
        self.rates = {}
        for rack in sorted(self.cores):
            self.rates.update(self.cores[rack].rates)
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
            racks={rack: self.cores[rack].placement
                   for rack in sorted(self.cores)},
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
        """Cold-solve and deploy the initial chains: one rack core per
        occupied rack, in sorted order."""
        self.assignment = self._initial_assignment()
        self._d_max = {c.name: c.slo.d_max for c in self.initial_chains}
        for rack in sorted(set(self.assignment.values())):
            chains = self._ordered(
                [c for c in self.initial_chains
                 if self.assignment[c.name] == rack],
                lambda c: c.name,
            )
            core = self._rack_core(
                rack, [self._handed_chain(c, rack) for c in chains]
            )
            try:
                core.bootstrap()
            except PlacementError as exc:
                if len(self.fabric.racks) == 1:
                    raise
                raise PlacementError(f"rack {rack}: {exc}") from exc
            self.cores[rack] = core
        self._sync()
        return self.placement

    # -- admission ----------------------------------------------------------

    @with_own_registry
    def process(self, event: ChainEvent) -> AdmissionDecision:
        """Judge one lifecycle event; on acceptance the merged views and
        inter-rack hops follow."""
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

    def _judge(self, event: ChainEvent,
               decide: Callable[[], AdmissionDecision]
               ) -> AdmissionDecision:
        """Count one admission check — a rack's, or a static rejection."""
        self.obs.counter("lifecycle.events", action=event.action).inc()
        decision = decide()
        self.obs.counter(
            "lifecycle.admission",
            decision="accepted" if decision.accepted else "rejected",
            action=event.action,
        ).inc()
        if not decision.accepted and decision.pinned > 0:
            # the solve failed while holding admitted chains at their
            # t_min floor: accepting would have required an eviction
            self.obs.counter("lifecycle.evictions_averted").inc()
        return decision

    def _reject(self, event: ChainEvent, reason: str) -> AdmissionDecision:
        return self._judge(event, lambda: AdmissionDecision(
            tick=event.at, action=event.action, chain=event.chain,
            accepted=False, reason=reason,
        ))

    def _ask(self, core: _RackCore, event: ChainEvent,
             arriving: Optional[NFChain] = None) -> AdmissionDecision:
        """One rack's admission check for ``event``."""
        return self._judge(
            event, lambda: core.admit(event, core.propose(event, arriving))
        )

    def _arrive(self, event: ChainEvent) -> AdmissionDecision:
        if event.chain in self.assignment:
            return self._reject(
                event, f"chain {event.chain!r} is already active"
            )
        (arriving,) = chains_from_spec(event.spec)
        candidates = self._candidates()
        reasons: List[str] = []
        for index, rack in enumerate(candidates):
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
            core = self.cores.get(rack)
            if core is None:
                decision = self._judge(
                    handed, lambda: self._open_rack(rack, handed, arriving)
                )
            else:
                decision = self._ask(core, handed, arriving)
            if decision.accepted:
                self.assignment[event.chain] = rack
                self._d_max[event.chain] = event.d_max_us
                if index > 0:
                    self.obs.counter("lifecycle.spills").inc()
                return decision
            if len(candidates) == 1:
                return decision
            reasons.append(f"{rack}: {decision.reason}")
        return AdmissionDecision(
            tick=event.at, action="arrive", chain=event.chain,
            accepted=False,
            reason="no rack admitted the chain — " + "; ".join(reasons),
        )

    def _open_rack(self, rack: str, event: ChainEvent,
                   arriving: NFChain) -> AdmissionDecision:
        """Cold-bootstrap an empty rack around one arriving chain."""
        fresh = self._rack_core(rack, [arriving.with_slo(event.slo())])
        try:
            report = fresh.bootstrap()
        except PlacementError as exc:
            return AdmissionDecision(
                tick=event.at, action="arrive", chain=event.chain,
                accepted=False, reason=str(exc),
            )
        self.cores[rack] = fresh
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
        if len(core.active) > 1:
            decision = self._ask(core, event)
        elif len(self.active) == 1:
            return self._reject(event, "cannot depart the last active chain")
        else:
            decision = self._judge(event, lambda: AdmissionDecision(
                tick=event.at, action="depart", chain=event.chain,
                accepted=True, mode="teardown",
                removed=self._teardown_rack(rack),
            ))
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
        link_reason = self._link_floor_check(
            event.chain, rack, event.t_min_mbps
        )
        if link_reason is None:
            decision = self._ask(self.cores[rack], event)
            if decision.accepted:
                return decision
        else:
            # the route itself is the binding constraint: don't even ask
            # the home rack, go straight to migration
            decision = self._reject(event, f"{rack}: {link_reason}")
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
                dest = self._rack_core(rack, [moved])
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
                depart = self._ask(home_core, ChainEvent(
                    at=event.at, action="depart", chain=event.chain,
                ))
                if not depart.accepted:  # pragma: no cover - shrink solve
                    # roll the arrival back so the chain is not doubled
                    if not fresh_dest:
                        self._ask(dest, ChainEvent(
                            at=event.at, action="depart", chain=event.chain,
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

    @with_own_registry
    def apply_fault(self, action: str, target: str,
                    severity: float = 1.0) -> None:
        """Apply one fault probe to the rack hosting ``target`` (serve's
        ``InjectFault``; a fabric names devices ``r1.server0``).

        ``fail``/``recover`` toggle full device failure; ``degrade_link``
        drops ``severity`` of the server's traffic (deterministic per-seq
        hash, batch-order independent) and ``restore_link`` clears it.
        Unlike the chaos engine's guarded timelines, probes here do not
        trigger automatic replanning — they perturb the dataplane so the
        per-phase SLO table shows the damage.
        """
        rack = (self.fabric.ingress if len(self.fabric.racks) == 1
                else self.fabric.rack_of_device(target))
        core = self.cores.get(rack)
        if core is None:
            raise FaultInjectionError(
                f"rack {rack!r} hosts no chains — nothing to fault"
            )
        core.apply_fault(action, target, severity)
        self.obs.counter(
            "faults.injected", action=action, target=target
        ).inc()
        self.fault_state = {}
        for name in sorted(self.cores):
            self.fault_state.update(self.cores[name].fault_state)

    # -- traffic phases ------------------------------------------------------

    def run_phase(self, label: str, packets_per_chain: int, *,
                  index: int, start_packet: int = 0) -> PhaseReport:
        """Inject one deterministic phase of traffic for every active
        chain, rack by rack in sorted order, and return the per-chain
        SLO compliance rows. Rows carry the end-to-end ``d_max``: the
        measured latency already includes the stamped inter-rack RTT, so
        the bound and the measurement describe the same packet path."""
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
            merged.chains.extend(
                row.with_d_max(self._d_max[row.chain_name])
                for row in phase.chains
            )
        merged.chains = self._ordered(
            merged.chains, lambda row: row.chain_name
        )
        return merged

    # -- state identity ------------------------------------------------------

    def state_digest(self) -> str:
        """A canonical digest of the deterministic control-plane state.

        Covers the chain→rack assignment, the end-to-end ``d_max`` of
        every chain and each rack core's digest (its admitted chain set,
        rendered placement, LP rates, replay cursors, injection sequence
        counter and live fault state) — everything that shapes future
        admission decisions and per-packet outcomes. Excludes caches and
        metrics (performance state, not behavior). Two cores with equal
        digests produce byte-identical subsequent decisions and phases
        for the same event sequence.
        """
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


__all__ = [
    "AdmissionCore",
    "AdmissionDecision",
    "ChainEvent",
    "FabricPlacement",
    "FAULT_PROBE_ACTIONS",
    "LIFECYCLE_ACTIONS",
]
