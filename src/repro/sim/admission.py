"""Shared admission core: the one place a live rack mutates.

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
* :class:`AdmissionCore` — the rack-owner state machine: active chains,
  placement, deployed rack, traffic engine, per-chain replay cursors.
  Rejections leave every piece of that state untouched; admitted chains
  are never evicted to make room.

Everything here is deterministic given (initial chains, seed, event
sequence): the same events replayed through a fresh core reproduce the
same placements, the same per-packet outcomes, and the same
:meth:`AdmissionCore.state_digest` — the property the serve daemon's
crash recovery (checkpoint-load + journal replay) is built on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain, chains_from_spec
from repro.chain.slo import SLO
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementReport,
    PlacementRequest,
)
from repro.exceptions import (
    FaultInjectionError,
    LifecycleError,
    PlacementError,
)
from repro.hw.topology import Topology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import MetricsRegistry, get_registry, with_own_registry
from repro.profiles.defaults import default_profiles
from repro.sim.faults import PhaseReport
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


class AdmissionCore:
    """Admit, place incrementally, delta-redeploy, and replay traffic.

    One core owns one live rack. All mutations go through
    :meth:`process` (lifecycle events) or :meth:`apply_fault` (day-2
    fault probes); both front-ends are expected to serialize their calls
    — the serve daemon does so with a single rack-owner worker task, the
    lifecycle engine by being synchronous. The rack and its traffic
    engine live in this object, in the owner's process, so the core
    pickles whole for serve checkpoints.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        chains: Optional[Sequence[NFChain]] = None,
        topology: Optional[Topology] = None,
        registry: Optional[MetricsRegistry] = None,
        full_resolve: bool = False,
    ):
        """Own ``spec``'s rack. A fabric core builds one of these per
        occupied rack and hands each what a spec cannot say: that rack's
        ``chains`` and built ``topology``."""
        initial_chains = spec.build_chains() if chains is None else chains
        if not initial_chains:
            raise LifecycleError(
                "admission needs at least one initial chain "
                "(an empty rack has nothing to deploy)"
            )
        self.spec = spec
        self.initial_chains = list(initial_chains)
        self.topology = (
            spec.build_topology() if topology is None else topology
        )
        self.profiles = default_profiles()
        self.obs = registry if registry is not None else get_registry()
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

        # mutable run state, owned exclusively by this core
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

    # -- bootstrap ----------------------------------------------------------

    @with_own_registry
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
        self.obs.gauge("lifecycle.active_chains").set(len(self.active))
        return initial

    # -- admission ----------------------------------------------------------

    def propose(self, event: ChainEvent
                ) -> Tuple[Optional[List[NFChain]], str]:
        """The chain set the event asks for, or a static rejection."""
        names = {chain.name for chain in self.active}
        if event.action == "arrive":
            if event.chain in names:
                return None, f"chain {event.chain!r} is already active"
            (chain,) = chains_from_spec(event.spec)
            chain = chain.with_slo(event.slo())
            return self.active + [chain], ""
        if event.chain not in names:
            return None, f"no active chain named {event.chain!r}"
        if event.action == "depart":
            proposed = [c for c in self.active if c.name != event.chain]
            if not proposed:
                return None, "cannot depart the last active chain"
            return proposed, ""
        # scale
        proposed = []
        for chain in self.active:
            if chain.name == event.chain:
                slo = chain.slo.with_tmin(event.t_min_mbps)
                if event.t_max_mbps != float("inf"):
                    slo = replace(slo, t_max=event.t_max_mbps)
                chain = chain.with_slo(slo)
            proposed.append(chain)
        return proposed, ""

    def admit(self, event: ChainEvent,
              proposed: List[NFChain]) -> AdmissionDecision:
        """Solve the proposed chain set and, on success, delta-redeploy.

        The core's state only advances when the solve is feasible; a
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

    @with_own_registry
    def process(self, event: ChainEvent) -> AdmissionDecision:
        """Propose + admit one event, with admission observability."""
        if event.action not in LIFECYCLE_ACTIONS:
            raise LifecycleError(
                f"unknown lifecycle action {event.action!r}; "
                f"choose from {sorted(LIFECYCLE_ACTIONS)}"
            )
        self.obs.counter("lifecycle.events", action=event.action).inc()
        proposed, static_reason = self.propose(event)
        if proposed is None:
            decision = AdmissionDecision(
                tick=event.at, action=event.action, chain=event.chain,
                accepted=False, reason=static_reason,
            )
        else:
            decision = self.admit(event, proposed)
        self.obs.counter(
            "lifecycle.admission",
            decision="accepted" if decision.accepted else "rejected",
            action=event.action,
        ).inc()
        if not decision.accepted and decision.pinned > 0:
            # the solve failed while holding admitted chains at their
            # t_min floor: accepting would have required an eviction
            self.obs.counter("lifecycle.evictions_averted").inc()
        self.obs.gauge("lifecycle.active_chains").set(len(self.active))
        return decision

    # -- day-2 fault probes --------------------------------------------------

    @with_own_registry
    def apply_fault(self, action: str, target: str,
                    severity: float = 1.0) -> None:
        """Apply one fault probe to the live rack (serve's ``InjectFault``).

        ``fail``/``recover`` toggle full device failure; ``degrade_link``
        drops ``severity`` of the server's traffic (deterministic per-seq
        hash, batch-order independent) and ``restore_link`` clears it.
        Unlike the chaos engine's guarded timelines, probes here do not
        trigger automatic replanning — they perturb the dataplane so the
        per-phase SLO table shows the damage.
        """
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
        self.obs.counter(
            "faults.injected", action=action, target=target
        ).inc()
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

    # -- traffic phases ------------------------------------------------------

    def run_phase(self, label: str, packets_per_chain: int, *,
                  index: int, start_packet: int = 0) -> PhaseReport:
        """Inject one deterministic phase of traffic for every active
        chain and return the per-chain SLO compliance rows."""
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

    # -- state identity ------------------------------------------------------

    def state_digest(self) -> str:
        """A canonical digest of the deterministic control-plane state.

        Covers the admitted chain set (names + SLOs), the placement's
        rendered assignment, the LP rates, per-chain replay cursors, the
        rack's injection sequence counter, and the live fault state —
        everything that shapes future admission decisions and per-packet
        outcomes. Excludes caches and metrics (performance state, not
        behavior). Two cores with equal digests produce byte-identical
        subsequent decisions and phases for the same event sequence.
        """
        payload = {
            "active": [
                [c.name, c.slo.t_min, c.slo.t_max, c.slo.d_max]
                for c in self.active
            ],
            "placement": (
                self.placement.describe() if self.placement else ""
            ),
            "rates": {k: round(v, 9) for k, v in sorted(self.rates.items())},
            "cursors": dict(sorted(self.cursors.items())),
            "rack_seq": self.rack._next_seq if self.rack is not None else 0,
            "faults": dict(sorted(self.fault_state.items())),
        }
        canon = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()


__all__ = [
    "AdmissionCore",
    "AdmissionDecision",
    "ChainEvent",
    "FAULT_PROBE_ACTIONS",
    "LIFECYCLE_ACTIONS",
]
