"""Shared admission core: the one place live racks mutate.

Every front-end that evolves a deployed rack online — the batch
:class:`~repro.sim.lifecycle.LifecycleEngine` replaying a timeline, the
:class:`~repro.sim.faults.ChaosEngine` replaying a fault timeline under
its SLO guard, and the always-on :mod:`repro.serve` control-plane
daemon — makes the same moves per transition: *propose* a new chain
set, *admit* it through the incremental :meth:`Placer.solve <repro.\
core.placer.Placer.solve>` path (``base_placement`` pins
already-admitted chains at their t_min floor), *delta-redeploy* only
the devices whose generated programs changed, and *replay* a
deterministic traffic phase to observe SLO compliance. This module owns
that sequence, and the fault model, so the front-ends cannot drift:

* :class:`ChainEvent` — one lifecycle transition (``arrive`` with a DSL
  spec + SLO, ``scale`` of t_min, ``depart``), shared vocabulary between
  timelines and the daemon's typed commands.
* :func:`validate_fault` — the one fault vocabulary chaos timelines
  and serve's ``inject_fault`` share.
* :class:`AdmissionDecision` — the typed outcome of one admission check
  (or shed or replan), carried verbatim into reports and serve
  responses.
* :class:`AdmissionCore` — the owner state machine of any topology. A
  single rack is a one-rack fabric; each occupied rack's placement,
  deployed rack, traffic engine and replay cursors live in a private
  rack core, while the core itself spills arrivals across racks,
  migrates scale-ups, tears down emptied racks, stitches inter-rack
  hops and holds the fault state of every device. Rejections leave
  every piece of that state untouched; admitted chains are never
  evicted to make room.
* :class:`FabricPlacement` / :class:`PhaseReport` — the merged
  placement and per-phase views the front-ends read.

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
from repro.core.lp import solve_rates
from repro.core.hierarchy import MultiRackPlacer
from repro.core.partition import (
    RackRoute,
    fabric_routes,
    home_lines,
    uplink_headroom,
)
from repro.core.placement import ChainPlacement, Placement
from repro.core.placer import (
    Placer,
    PlacerConfig,
    PlacementReport,
    PlacementRequest,
)
from repro.core.rates import server_offered_load
from repro.exceptions import (
    FaultInjectionError,
    LifecycleError,
    PlacementError,
    ReproError,
)
from repro.hw.multirack import MultiRackTopology
from repro.hw.topology import Topology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import (
    MetricsRegistry,
    QuantileSketch,
    get_registry,
    with_own_registry,
)
from repro.profiles.defaults import default_profiles
from repro.sim.interrack import install_fabric_hops, link_drop_fractions
from repro.sim.runtime import DeployedRack, RedeployResult
from repro.sim.traffic import (
    ChainTrafficReport,
    RunSpec,
    TrafficEngine,
    configure_rack_queueing,
)
from repro.units import SLO_RTOL

LIFECYCLE_ACTIONS = ("arrive", "scale", "depart")

#: actions a fault may carry. ``severity`` is the share of the server
#: link's capacity lost for ``degrade_link`` and the number of cores lost
#: for ``lose_cores``; the others ignore it.
FAULT_ACTIONS = (
    "fail",
    "recover",
    "degrade_link",
    "restore_link",
    "lose_cores",
    "restore_cores",
)

#: actions that only make sense against a server (they model the
#: server-side link / core pool).
_SERVER_ACTIONS = frozenset(
    {"degrade_link", "restore_link", "lose_cores", "restore_cores"}
)


def validate_fault(action: str, target: str, severity: float,
                   topology=None) -> None:
    """Reject a fault that cannot apply: an unknown action, a severity
    that is not finite or is out of its range (``degrade_link`` in
    (0, 1], ``lose_cores`` a whole core count >= 1) and, given the rack
    or fabric, a target that is the ToR, is unknown (a
    :class:`~repro.exceptions.TopologyError`) or is not a server for a
    server-only action."""
    if action not in FAULT_ACTIONS:
        raise FaultInjectionError(
            f"unknown fault action {action!r}; "
            f"choose from {sorted(FAULT_ACTIONS)}"
        )
    if (isinstance(severity, bool) or not isinstance(severity, (int, float))
            or not math.isfinite(severity)):
        raise FaultInjectionError(
            f"{action} severity must be a finite number, got {severity!r}"
        )
    if action == "degrade_link" and not 0.0 < severity <= 1.0:
        raise FaultInjectionError(
            f"degrade_link severity must be in (0, 1], got {severity}"
        )
    if action == "lose_cores" and (severity < 1 or severity % 1):
        raise FaultInjectionError(
            f"lose_cores severity must be a whole core count >= 1, "
            f"got {severity}"
        )
    if topology is None:
        return
    if isinstance(topology, MultiRackTopology):
        topology = topology.rack(
            topology.ingress if len(topology.racks) == 1
            else topology.rack_of_device(target)
        )
    if target == topology.switch.name:
        raise FaultInjectionError(
            "cannot inject faults into the ToR switch "
            "(it coordinates the rack)"
        )
    topology.device(target)  # raises TopologyError if unknown
    if action in _SERVER_ACTIONS and target not in {
            server.name for server in topology.servers}:
        raise FaultInjectionError(
            f"{action} targets a server link/core pool; "
            f"{target!r} is not a server"
        )


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

    def validate(self) -> None:
        """Reject a statically malformed event (lifecycle timelines and
        serve's typed commands share this check): an unknown action, a
        negative tick, no chain, an arrival spec that does not parse into
        exactly this chain, a floor that is not a finite number > 0, a
        NaN cap or a cap below the floor, or a delay bound that is NaN or
        not > 0."""
        if self.action not in LIFECYCLE_ACTIONS:
            raise LifecycleError(
                f"unknown lifecycle action {self.action!r}; "
                f"choose from {sorted(LIFECYCLE_ACTIONS)}"
            )
        if self.at < 0:
            raise LifecycleError(
                f"event {self.describe()!r}: tick must be >= 0"
            )
        if not self.chain:
            raise LifecycleError("every event names a chain")
        if self.action == "arrive":
            if not self.spec.strip():
                raise LifecycleError(
                    f"arrival of {self.chain!r} carries no chain spec"
                )
            try:
                parsed = chains_from_spec(self.spec)
            except ReproError as exc:
                raise LifecycleError(
                    f"arrival spec for {self.chain!r} does not parse: {exc}"
                ) from exc
            if len(parsed) != 1 or parsed[0].name != self.chain:
                raise LifecycleError(
                    f"arrival spec for {self.chain!r} must declare exactly "
                    f"that one chain, got {[c.name for c in parsed]}"
                )
        if self.action == "depart":
            return
        if not (math.isfinite(self.t_min_mbps) and self.t_min_mbps > 0):
            raise LifecycleError(
                f"{self.action} of {self.chain!r} needs a finite "
                f"t_min_mbps > 0, got {self.t_min_mbps!r} "
                "(admission is an SLO contract)"
            )
        if not self.t_max_mbps >= self.t_min_mbps:  # NaN fails too
            raise LifecycleError(
                f"{self.action} of {self.chain!r} needs t_max_mbps >= "
                f"t_min_mbps, got t_max_mbps={self.t_max_mbps!r} and "
                f"t_min_mbps={self.t_min_mbps!r}"
            )
        if not self.d_max_us > 0:  # NaN fails too
            raise LifecycleError(
                f"{self.action} of {self.chain!r} needs d_max_us > 0, "
                f"got {self.d_max_us!r}"
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


@dataclass
class PhaseReport:
    """One contiguous stretch of traffic under a fixed fault/guard state."""

    index: int
    label: str
    mode: str  # normal | degraded | replanned | exhausted
    start_packet: int
    #: per-chain traffic rows (the TrafficEngine's report type).
    chains: List[ChainTrafficReport] = field(default_factory=list)
    #: chain name -> SLO minimum rate (Mbps) in force during the phase.
    t_mins: Dict[str, float] = field(default_factory=dict)

    def slo_met(self, row: ChainTrafficReport) -> bool:
        """Rate floor AND tail-latency bound for one chain in this phase."""
        return self.rate_slo_met(row) and row.latency_slo_met

    def rate_slo_met(self, row: ChainTrafficReport) -> bool:
        t_min = self.t_mins.get(row.chain_name, 0.0)
        if t_min <= 0.0 or row.injected == 0:
            return True
        return row.delivered_mbps >= t_min * (1.0 - SLO_RTOL)

    @property
    def compliant(self) -> bool:
        return all(self.slo_met(row) for row in self.chains)

    def chain_rows(self) -> List[dict]:
        """The per-chain JSON rows of this phase, as the chaos, lifecycle
        and serve reports all emit them."""
        return [
            {
                "chain": row.chain_name,
                "injected": row.injected,
                "delivered": row.delivered,
                "assigned_mbps": round(row.assigned_mbps, 6),
                "delivered_mbps": round(row.delivered_mbps, 6),
                "t_min_mbps": round(self.t_mins.get(row.chain_name, 0.0), 6),
                "latency_p50_us": round(row.latency_p50_us, 6),
                "latency_p95_us": round(row.latency_p95_us, 6),
                "latency_p99_us": round(row.latency_p99_us, 6),
                "latency_slo_us": round(row.latency_slo_us, 6),
                "latency_slo_met": row.latency_slo_met,
                "slo_met": self.slo_met(row),
            }
            for row in self.chains
        ]


def phase_table(phases: Sequence[PhaseReport], *, label: int = 34,
                latency: int = 10, modes: bool = False) -> List[str]:
    """The per-phase, per-chain SLO table of every phased report:
    ``label`` and ``latency`` are the widths of the phase and µs
    columns, and the chaos table adds a ``mode`` column (``modes``)."""
    mode, pad = (f" {'mode':<10}", f" {'':<10}") if modes else ("", "")
    lines = [
        f"{'phase':<{label}}{mode} {'chain':<12} {'injected':>8} "
        f"{'delivered':>9} {'assigned':>10} {'delivered':>10} "
        f"{'t_min':>9} {'p99':>{latency}} {'d_max':>{latency}} {'slo':>9}",
        f"{'':<{label}}{pad} {'':<12} {'':>8} {'':>9} "
        f"{'Mbps':>10} {'Mbps':>10} {'Mbps':>9} "
        f"{'µs':>{latency}} {'µs':>{latency}} {'':>9}",
    ]
    for ph in phases:
        name = f"{ph.index}:{ph.label}"
        mode = f" {ph.mode:<10}" if modes else ""
        for row in ph.chains:
            d_max = (f"{row.latency_slo_us:>{latency}.1f}"
                     if row.latency_slo_us > 0 else f"{'—':>{latency}}")
            lines.append(
                f"{name:<{label}}{mode} {row.chain_name:<12} "
                f"{row.injected:>8} {row.delivered:>9} "
                f"{row.assigned_mbps:>10.2f} {row.delivered_mbps:>10.2f} "
                f"{ph.t_mins.get(row.chain_name, 0.0):>9.2f} "
                f"{row.latency_p99_us:>{latency}.1f} {d_max} "
                f"{'ok' if ph.slo_met(row) else 'VIOLATED':>9}"
            )
    return lines


@dataclass
class _Faults:
    """The fault state of every device of a fabric, keyed by device name
    (a fabric's are rack-prefixed). Held whether or not the device's
    rack hosts chains: a rack that opens later inherits it."""

    failed: set = field(default_factory=set)
    #: server -> share of its link capacity that survives
    link_factor: Dict[str, float] = field(default_factory=dict)
    #: server -> cores lost
    lost_cores: Dict[str, int] = field(default_factory=dict)
    #: servers whose running placement was deployed before their core
    #: loss: the dead cores were running its subgroups. A replan that
    #: reserves around them clears the marker.
    stale: set = field(default_factory=set)

    def apply(self, action: str, target: str, severity: float) -> None:
        if action == "fail":
            self.failed.add(target)
        elif action == "recover":
            self.failed.discard(target)
        elif action == "degrade_link":
            self.link_factor[target] = max(0.0, 1.0 - severity)
        elif action == "restore_link":
            self.link_factor.pop(target, None)
        elif action == "lose_cores":
            self.lost_cores[target] = (
                self.lost_cores.get(target, 0) + int(severity)
            )
            self.stale.add(target)
        else:  # restore_cores
            self.lost_cores.pop(target, None)
            self.stale.discard(target)

    def touches(self, devices: frozenset) -> bool:
        """Does any fault sit on one of ``devices``?"""
        return any(
            device in devices
            for held in (self.failed, self.link_factor, self.lost_cores)
            for device in held
        )

    def view(self) -> Dict[str, float]:
        """The state as ``kind:device -> value``, sorted (the serve
        snapshot and the state digest)."""
        out: Dict[str, float] = {}
        out.update((f"fail:{d}", 1.0) for d in self.failed)
        out.update((f"link_factor:{d}", v)
                   for d, v in self.link_factor.items())
        out.update((f"lost_cores:{d}", v)
                   for d, v in self.lost_cores.items())
        out.update((f"stale:{d}", 1.0) for d in self.stale)
        return dict(sorted(out.items()))


class _RackCore:
    """One rack's share of an :class:`AdmissionCore`.

    Owns the rack's placer and meta-compiler, its deployed rack and
    traffic engine, the rates in force and the per-chain replay
    cursors. It solves, deploys, projects the owning core's fault state
    onto its dataplane and replays; what to ask it and what to count is
    the owning core's business.
    """

    def __init__(self, spec: RunSpec, topology: Topology,
                 obs: MetricsRegistry, full_resolve: bool):
        self.spec = spec
        self.topology = topology
        self.profiles = default_profiles()
        self.obs = obs
        #: re-solve every event from scratch instead of warm-starting
        #: from the running placement.
        self.full_resolve = full_resolve
        #: every device name of the rack (fault state is keyed by device)
        self.devices = frozenset(
            [topology.switch.name]
            + [server.name for server in topology.servers]
            + [nic.name for nic in topology.smartnics]
        )

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
        #: the rates in force: the placement's, or a shed's cut of them.
        self.rates: Dict[str, float] = {}
        #: per-chain deterministic replay cursors (flow-cycle positions).
        self.cursors: Dict[str, int] = {}
        #: whether the dataplane carries a projected fault.
        self._faulted = False

    def solve(self, chains: Sequence[NFChain]) -> PlacementReport:
        """A full, cold solve of ``chains`` on this rack; raises
        :class:`PlacementError` when it is infeasible."""
        report = self.placer.solve(PlacementRequest(
            chains=chains, strategy=self.spec.strategy,
            objective=self.spec.objective,
        ))
        if not report.placement.feasible:
            raise PlacementError(
                "admission needs a feasible initial placement: "
                f"{report.placement.infeasible_reason}"
            )
        return report

    def deploy(self, report: PlacementReport) -> PlacementReport:
        """Compile and deploy a cold solve's placement onto a fresh rack:
        the chains it places, as it holds them, become the active set."""
        placement = report.placement
        self.active = [cp.chain for cp in placement.chains]
        self.placement = placement
        self.rates = dict(placement.rates)
        artifacts = self.metacompiler.compile_placement(placement)
        self.rack = DeployedRack(
            self.topology, artifacts, self.profiles,
            seed=self.spec.seed, registry=self.obs,
        )
        self._configure_queueing()
        self.traffic = TrafficEngine(
            self.rack, placement,
            flows_per_chain=self.spec.flows_per_chain,
            batch_size=self.spec.batch_size,
        )
        return report

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
        delta = self.install(report.placement)
        if event.action == "depart":
            self.rack.forget_chain(event.chain)
        self.active = proposed
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

    def install(self, placement: Placement) -> RedeployResult:
        """Compile ``placement`` and delta-redeploy it: the injection
        sequence counter, the replay cursors and every device runtime
        whose program is unchanged survive."""
        artifacts = self.metacompiler.compile_placement(placement)
        delta = self.rack.redeploy(artifacts)
        self.traffic.placement = placement
        self.placement = placement
        self.rates = dict(placement.rates)
        self._configure_queueing()
        return delta

    def _configure_queueing(self) -> None:
        """Re-derive utilization at the rates in force: a shed lowers
        the stamped queue delay, closing the latency guard's loop."""
        configure_rack_queueing(
            self.rack, self.placement.chains, self.rates, self.spec.queueing
        )

    def project_faults(self, faults: _Faults) -> None:
        """Project the fault state onto the deployed rack at the rates
        in force: a failed device drops everything routed to it; a
        degraded link drops ``1 − capacity·factor / offered``, and dead
        cores under a stale placement what the surviving cores cannot
        carry, so shedding relieves both. A rack that holds no fault,
        and held none, costs nothing."""
        if not self._faulted and not faults.touches(self.devices):
            return
        rack = self.rack
        rack.clear_faults()
        self._faulted = faults.touches(self.devices)
        if not self._faulted:
            return
        for device in sorted(faults.failed & self.devices):
            rack.set_device_failed(device)
        chains = self.placement.chains
        for server in self.topology.servers:
            name = server.name
            if name in faults.failed:
                continue
            capacity = (
                server.primary_nic().rate_mbps
                * faults.link_factor.get(name, 1.0)
            )
            offered = server_offered_load(chains, self.rates, name)
            link_loss = (
                max(0.0, 1.0 - capacity / offered) if offered > 0 else 0.0
            )
            # core shortfall: the cores lost against the cores the
            # placement allocated, scaled by how much of its placed rate
            # still runs (shed rates need fewer cores)
            core_loss = 0.0
            lost = faults.lost_cores.get(name, 0)
            if lost > 0 and name in faults.stale:
                allocated = sum(
                    sg.cores
                    for cp in chains
                    for sg in cp.subgroups
                    if sg.server == name
                )
                placed = server_offered_load(
                    chains, self.placement.rates, name
                )
                current = server_offered_load(chains, self.rates, name)
                if allocated > 0 and placed > 0 and current > 0:
                    remaining = max(0.0, (allocated - lost) / allocated)
                    core_loss = max(
                        0.0, 1.0 - remaining / (current / placed)
                    )
            combined = 1.0 - (1.0 - link_loss) * (1.0 - core_loss)
            rack.set_drop_fraction(name, min(1.0, combined))

    def shed(self, failed: set) -> float:
        """Graceful degradation: re-solve the rate LP on the running
        placement with the ``failed`` devices marked, then cut every
        chain to ``min(assigned, t_min)``. Returns the Mbps shed."""
        added = sorted(
            (failed & self.devices) - self.topology.failed_devices
        )
        try:
            for device in added:
                self.topology.mark_failed(device)
            solution = solve_rates(self.placement.chains, self.topology)
        finally:
            for device in added:
                self.topology.failed_devices.discard(device)
        base = solution.rates if solution.feasible else dict(self.rates)
        shed = 0.0
        rates: Dict[str, float] = {}
        for cp in self.placement.chains:
            assigned = base.get(cp.name, self.rates.get(cp.name, 0.0))
            floor = min(assigned, cp.chain.slo.t_min)
            shed += max(0.0, assigned - floor)
            rates[cp.name] = floor
        self.rates = rates
        self._configure_queueing()
        return shed

    def solve_without(self, faults: _Faults) -> PlacementReport:
        """A full solve of the active chains with the rack's failed
        devices out of service and its lost cores reserved for the
        duration, so the placement allocates around the dead cores."""
        originals: Dict[str, int] = {}
        try:
            for name, lost in faults.lost_cores.items():
                if name not in self.devices:
                    continue
                server = self.topology.server(name)
                originals[name] = server.reserved_cores
                server.reserved_cores = min(
                    server.total_cores, server.reserved_cores + lost
                )
            return self.placer.solve(PlacementRequest(
                chains=self.active,
                strategy=self.spec.strategy,
                failed_devices=tuple(sorted(faults.failed & self.devices)),
                objective=self.spec.objective,
            ))
        finally:
            for name, reserved in originals.items():
                self.topology.server(name).reserved_cores = reserved

    def replay_batch(self, cp: ChainPlacement,
                     count: int) -> Tuple[int, List[float]]:
        cursor = self.cursors.get(cp.name, 0)
        delivered, self.cursors[cp.name], samples = (
            self.traffic.replay_batch(cp, cursor, count)
        )
        return delivered, samples

    def replay(self, cp: ChainPlacement,
               count: int) -> Tuple[int, QuantileSketch]:
        """Inject ``count`` packets of ``cp``'s flow cycle from its
        cursor; the delivered count and their latency sketch."""
        cursor = self.cursors.get(cp.name, 0)
        delivered, latency, _wall = self.traffic.replay(cp, cursor, count)
        self.cursors[cp.name] = cursor + count
        return delivered, latency

    def state_digest(self) -> str:
        """The admitted chain set (names + SLOs), the placement's
        rendered assignment, the rates in force, the replay cursors and
        the rack's injection sequence counter."""
        payload = {
            "active": [
                [c.name, c.slo.t_min, c.slo.t_max, c.slo.d_max]
                for c in self.active
            ],
            "placement": self.placement.describe(),
            "rates": {k: round(v, 9) for k, v in sorted(self.rates.items())},
            "cursors": dict(sorted(self.cursors.items())),
            "rack_seq": self.rack._next_seq,
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
        lines.extend(home_lines(self.assignment, self.remote))
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
    chain→rack assignment, arrival spill in route order, the link row
    each rack solve gets (:meth:`_uplink`), scale-driven migration, rack
    teardown, inter-rack hop installation, the fault state of every
    device, the merged placement/phase views and the digest — and counts
    every admission check.

    All mutations go through :meth:`process` (lifecycle events),
    :meth:`apply_fault` (faults) or the guard's :meth:`shed` and
    :meth:`replan`; the front-ends serialize their calls — the serve
    daemon with a single rack-owner worker task, the lifecycle and chaos
    engines by being synchronous. Every rack lives in this object, in
    the owner's process, so the core pickles whole for serve
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
        self.d_max: Dict[str, float] = {}
        self.active: List[NFChain] = []
        self.rates: Dict[str, float] = {}
        self.placement: Optional[FabricPlacement] = None
        #: every device's fault state, projected onto the rack cores.
        self.faults = _Faults()

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

    def _rack_core(self, rack: str) -> _RackCore:
        return _RackCore(self.spec, self.fabric.rack(rack), self.obs,
                         self.full_resolve)

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
        """Rebuild the merged views, reinstall hops and re-project the
        faults after any change."""
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
        self._project_faults()
        self.obs.gauge("lifecycle.active_chains").set(len(self.active))

    def _project_faults(self) -> None:
        for rack in sorted(self.cores):
            self.cores[rack].project_faults(self.faults)

    def _carried(self, leaving: str = "") -> Dict[str, float]:
        """Rack -> the Mbps its chains carry at the rates in force, less
        ``leaving``'s."""
        return {
            rack: sum(rate for chain, rate in core.rates.items()
                      if chain != leaving)
            for rack, core in self.cores.items()
        }

    def _uplink(self, rack: str,
                carried: Optional[Dict[str, float]] = None) -> None:
        """Give ``rack``'s next solve its link row: what its route's
        links leave after the other racks' ``carried`` Mbps (the rates in
        force by default)."""
        self.fabric.rack(rack).uplink = uplink_headroom(
            self.fabric, self.routes, rack,
            self._carried() if carried is None else carried,
        )

    # -- bootstrap ----------------------------------------------------------

    @with_own_registry
    def bootstrap(self) -> FabricPlacement:
        """Cold-solve and deploy the initial chains. One rack takes them
        all through its own ``Placer.solve``. A fabric takes the
        partition, the per-rack placements (remote chains already
        RTT-charged, each rack's rates within its links) of
        :meth:`~repro.core.hierarchy.MultiRackPlacer.solve`, one rack core
        per occupied rack, in sorted order."""
        chains = self.initial_chains
        self.d_max = {c.name: c.slo.d_max for c in chains}
        ingress = self.fabric.ingress
        if len(self.fabric.racks) == 1:
            core = self._rack_core(ingress)
            core.deploy(core.solve(chains))
            self.cores[ingress] = core
            self.assignment = {c.name: ingress for c in chains}
        else:
            solved = MultiRackPlacer(
                self.fabric, default_profiles(),
                PlacerConfig(strategy=self.spec.strategy),
            ).solve(PlacementRequest.multi_rack(
                chains, objective=self.spec.objective,
            )).placement
            if not solved.feasible:
                raise PlacementError(
                    "admission needs a feasible initial placement: "
                    f"{solved.infeasible_reason}"
                )
            self.assignment = dict(solved.partition.assignment)
            for rack in sorted(solved.reports):
                self.cores[rack] = self._rack_core(rack)
                self.cores[rack].deploy(solved.reports[rack])
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
            shrunk = self.routes[rack].charge_rtt(event.d_max_us)
            if shrunk <= 0.0:
                reasons.append(
                    f"{rack}: d_max {event.d_max_us:g} µs <= inter-rack "
                    f"RTT {self.routes[rack].rtt_us:g} µs"
                )
                continue
            self._uplink(rack)
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
                self.d_max[event.chain] = event.d_max_us
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
        fresh = self._rack_core(rack)
        try:
            report = fresh.deploy(fresh.solve([arriving.with_slo(event.slo())]))
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
            self._uplink(rack)
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
            del self.d_max[event.chain]
        return decision

    def _scale(self, event: ChainEvent) -> AdmissionDecision:
        rack = self.assignment.get(event.chain)
        if rack is None:
            return self._reject(
                event, f"no active chain named {event.chain!r}"
            )
        self._uplink(rack)
        decision = self._ask(self.cores[rack], event)
        if decision.accepted:
            return decision
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
        d_max = self.d_max[event.chain]
        t_max = (current.slo.t_max if math.isinf(event.t_max_mbps)
                 else event.t_max_mbps)
        # same lift as SLO.with_tmin: scaling past the old ceiling raises it
        t_max = max(t_max, event.t_min_mbps)
        for rack in self._candidates():
            if rack == home:
                continue
            shrunk = self.routes[rack].charge_rtt(d_max)
            if shrunk <= 0.0:
                continue
            self._uplink(rack, self._carried(leaving=event.chain))
            moved = current.with_slo(SLO(
                t_min=event.t_min_mbps, t_max=t_max, d_max=shrunk,
            ))
            dest = self.cores.get(rack)
            fresh_dest = dest is None
            if fresh_dest:
                dest = self._rack_core(rack)
                try:
                    report = dest.deploy(dest.solve([moved]))
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
                self._uplink(home, {**self._carried(),
                                    rack: sum(dest.rates.values())})
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

    # -- faults and the guard's reactions ------------------------------------

    @with_own_registry
    def apply_fault(self, action: str, target: str,
                    severity: float = 1.0) -> None:
        """Record one fault on ``target`` (a fabric names devices
        ``r1.server0``) and project the fault state onto the racks; a
        fault on a rack that hosts no chains is held until it opens.
        Admissions ignore the fault state; only the chaos guard reacts
        to it (:meth:`shed`, :meth:`replan`), so serve's per-phase table
        shows the damage."""
        validate_fault(action, target, severity, self.fabric)
        self.faults.apply(action, target, severity)
        self.obs.counter(
            "faults.injected", action=action, target=target
        ).inc()
        self._project_faults()

    @with_own_registry
    def shed(self, racks: Sequence[str]) -> AdmissionDecision:
        """Graceful degradation on each named rack: the rate LP re-solved
        with the failed devices marked, every chain cut to its t_min,
        then faults and queueing re-projected at the shed rates."""
        shed = sum(self.cores[rack].shed(self.faults.failed)
                   for rack in racks)
        self.obs.counter("guard.degradations").inc()
        self.obs.gauge("guard.degraded_mode").set(1)
        self.obs.gauge("guard.shed_mbps").set(shed)
        self._sync()
        return AdmissionDecision(
            tick=0, action="shed", chain="+".join(racks), accepted=True,
            mode="rates",
        )

    @with_own_registry
    def replan(self, racks: Sequence[str]) -> AdmissionDecision:
        """Re-place each named rack's chains from scratch without its
        failed devices and around its dead cores, then delta-redeploy.

        All or nothing: a rack the solver cannot place rejects the
        replan with the solver's reason and no rack changes. An accepted
        replan clears the racks' stale core-loss markers.
        """
        self.obs.counter("replan.count").inc()
        reports: Dict[str, PlacementReport] = {}
        carried = self._carried()
        reason = ""
        with self.obs.timer("replan.latency_seconds"):
            for rack in racks:
                self._uplink(rack, carried)
                try:
                    report = self.cores[rack].solve_without(self.faults)
                except PlacementError as exc:
                    # no surviving substrate can even host the NFs
                    reason = str(exc)
                    break
                if not report.placement.feasible:
                    reason = report.placement.infeasible_reason \
                        or "infeasible"
                    break
                reports[rack] = report
                carried[rack] = sum(report.placement.rates.values())
        if reason:
            self.obs.counter("replan.infeasible").inc()
            return AdmissionDecision(
                tick=0, action="replan", chain="+".join(racks),
                accepted=False, reason=reason,
            )
        deltas = []
        for rack in racks:
            deltas.append(self.cores[rack].install(reports[rack].placement))
            self.faults.stale -= self.cores[rack].devices
        self._sync()
        self.obs.gauge("guard.degraded_mode").set(0)
        return AdmissionDecision(
            tick=0, action="replan", chain="+".join(racks), accepted=True,
            placed=sum(len(r.placement.chains) for r in reports.values()),
            rebuilt=tuple(d for delta in deltas for d in delta.rebuilt),
            reused=tuple(d for delta in deltas for d in delta.reused),
            removed=tuple(d for delta in deltas for d in delta.removed),
            seconds=sum(r.seconds for r in reports.values()),
        )

    # -- traffic phases ------------------------------------------------------

    def replay_batch(self, cp: ChainPlacement,
                     count: int) -> Tuple[int, List[float]]:
        """Inject the next ``count`` packets of ``cp``'s flow cycle on its
        home rack, from the chain's replay cursor. Returns the delivered
        count and the delivered packets' latencies (µs) in injection
        order."""
        return self.cores[self.assignment[cp.name]].replay_batch(cp, count)

    def run_phase(self, label: str, packets_per_chain: int, *,
                  index: int, start_packet: int = 0) -> PhaseReport:
        """Inject one deterministic phase of traffic for every active
        chain, rack by rack in sorted order, and return the per-chain
        SLO compliance rows."""
        phase = PhaseReport(
            index=index, label=label, mode="live", start_packet=start_packet,
        )
        for rack in sorted(self.cores):
            core = self.cores[rack]
            for cp in core.placement.chains:
                delivered, latency = core.replay(cp, packets_per_chain)
                phase.t_mins[cp.name] = cp.chain.slo.t_min
                phase.chains.append(
                    self.row(cp, packets_per_chain, delivered, latency)
                )
        phase.chains = self._ordered(phase.chains, lambda row: row.chain_name)
        return phase

    def row(self, cp: ChainPlacement, injected: int, delivered: int,
            latency: QuantileSketch) -> ChainTrafficReport:
        """``cp``'s phase row at its rate in force, held to its
        end-to-end ``d_max``: the measured latency includes the stamped
        inter-rack RTT, so the bound and the measurement describe the
        same packet path."""
        return ChainTrafficReport.replayed(
            cp,
            flows=self.spec.flows_per_chain,
            injected=injected,
            delivered=delivered,
            latency=latency,
            assigned_mbps=self.rates.get(cp.name, 0.0),
        ).with_d_max(self.d_max[cp.name])

    # -- state identity ------------------------------------------------------

    def state_digest(self) -> str:
        """A canonical digest of the deterministic control-plane state.

        Covers the chain→rack assignment, the end-to-end ``d_max`` of
        every chain, the fault state and each rack core's digest (its
        admitted chain set, rendered placement, rates in force, replay
        cursors and injection sequence counter) — everything that shapes
        future admission decisions and per-packet outcomes. Excludes
        caches and metrics (performance state, not behavior). Two cores
        with equal digests produce byte-identical subsequent decisions
        and phases for the same event sequence.
        """
        payload = {
            "assignment": dict(sorted(self.assignment.items())),
            "d_max": {
                name: repr(value)
                for name, value in sorted(self.d_max.items())
            },
            "faults": self.faults.view(),
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
    "FAULT_ACTIONS",
    "LIFECYCLE_ACTIONS",
    "PhaseReport",
    "phase_table",
    "validate_fault",
]
