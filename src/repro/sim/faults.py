"""Fault-injection timeline + SLO-guard auto-replan (chaos engineering).

Lemur's contract is that every admitted chain keeps its SLO minimum rate
while marginal throughput is maximized (§3) — but a static, healthy rack
cannot demonstrate that the contract *survives* change. This module closes
the loop the related work treats as first-class (online scaling/recovery):

* :class:`FaultTimeline` — a deterministic, seedable schedule of fault
  events (device failure/recovery, link-capacity degradation, core loss)
  keyed by **global injected-packet offsets**, so the same timeline always
  perturbs the same packets regardless of wall clock or parallelism.
* :class:`ChaosEngine` — replays per-chain traffic through a
  :class:`~repro.sim.runtime.DeployedRack` via the
  :class:`~repro.sim.traffic.TrafficEngine`, fires timeline events, and
  runs the **SLO guard**: per-chain delivered rate is watched over a
  configurable packet window; on violation the guard first sheds marginal
  rate down to SLO minimums (re-solving the rate LP on the surviving
  placement), and if the violation persists it auto-replans through
  :meth:`Placer.solve` with the failed devices excluded and
  live-redeploys the new rack, replaying the remaining traffic.
* :class:`ChaosReport` — a per-phase SLO compliance table whose rendering
  is byte-identical across repeated runs and ``--jobs`` settings; phases
  are delimited by fault events and guard reactions.

Guard observability (exported through ``repro.obs``): ``slo.violations``
(per chain), ``guard.degradations``, ``replan.count`` /
``replan.infeasible``, the ``replan.latency_seconds`` histogram, and the
``guard.degraded_mode`` / ``guard.chains_in_violation`` gauges.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Deque, Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.core.lp import solve_rates
from repro.core.placer import Placer, PlacerConfig, PlacementRequest
from repro.core.rates import device_utilization, server_offered_load
from repro.exceptions import FaultInjectionError, PlacementError
from repro.hw.multirack import MultiRackTopology
from repro.hw.topology import Topology
from repro.metacompiler.compiler import MetaCompiler
from repro.obs import (
    MetricsRegistry,
    QuantileSketch,
    get_registry,
    quantile,
    with_own_registry,
)
from repro.profiles.defaults import default_profiles
from repro.runtime.pool import run_checked
from repro.sim.measurement import QueueingModel
from repro.sim.runtime import DeployedRack
from repro.sim.traffic import ChainTrafficReport, RunSpec, TrafficEngine
from repro.units import SLO_RTOL

#: actions a timeline event may carry; ``severity`` means the fraction of
#: link capacity lost for ``degrade_link`` and the number of cores lost
#: for ``lose_cores`` (ignored by the others).
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

#: backwards-compatible alias — the constant lives in :mod:`repro.units`
#: so traffic reports can share it without importing the chaos engine.
_SLO_RTOL = SLO_RTOL


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, fired when the global injected-packet count
    reaches ``at_packet`` (events land on the first batch boundary at or
    after their offset)."""

    at_packet: int
    action: str
    target: str
    severity: float = 1.0

    def describe(self) -> str:
        extra = ""
        if self.action == "degrade_link":
            extra = f" severity={self.severity:g}"
        elif self.action == "lose_cores":
            extra = f" cores={int(self.severity)}"
        return f"at={self.at_packet} {self.action} {self.target}{extra}"


@dataclass(frozen=True)
class FaultTimeline:
    """An ordered, validated schedule of :class:`FaultEvent`.

    ``seed`` feeds both :meth:`random` synthesis and the rack's
    deterministic drop hash, so (seed, timeline) fully determines a chaos
    run's packet outcomes.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 23

    def sorted_events(self) -> List[FaultEvent]:
        """Events by firing offset; ties keep declaration order."""
        return sorted(
            self.events, key=lambda ev: ev.at_packet
        )

    def validate(self, topology: Topology) -> None:
        """Reject events that cannot apply to this topology."""
        server_names = {s.name for s in topology.servers}
        for ev in self.events:
            if ev.action not in FAULT_ACTIONS:
                raise FaultInjectionError(
                    f"unknown fault action {ev.action!r}; "
                    f"choose from {sorted(FAULT_ACTIONS)}"
                )
            if ev.at_packet < 0:
                raise FaultInjectionError(
                    f"event {ev.describe()!r}: at_packet must be >= 0"
                )
            if ev.target == topology.switch.name:
                raise FaultInjectionError(
                    "cannot inject faults into the ToR switch "
                    "(it coordinates the rack)"
                )
            topology.device(ev.target)  # raises TopologyError if unknown
            if ev.action in _SERVER_ACTIONS and ev.target not in server_names:
                raise FaultInjectionError(
                    f"{ev.action} targets a server link/core pool; "
                    f"{ev.target!r} is not a server"
                )
            if ev.action == "degrade_link" and not 0.0 < ev.severity <= 1.0:
                raise FaultInjectionError(
                    f"degrade_link severity must be in (0, 1], "
                    f"got {ev.severity}"
                )
            if ev.action == "lose_cores" and int(ev.severity) < 1:
                raise FaultInjectionError(
                    f"lose_cores severity must be a core count >= 1, "
                    f"got {ev.severity}"
                )

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "events": [
                    {
                        "at_packet": ev.at_packet,
                        "action": ev.action,
                        "target": ev.target,
                        "severity": ev.severity,
                    }
                    for ev in self.events
                ],
            },
            indent=2,
            sort_keys=True,
        )

    #: the exhaustive wire fields; anything else is rejected so schema
    #: typos fail loudly instead of silently defaulting.
    _EVENT_FIELDS = frozenset({"at_packet", "action", "target", "severity"})
    _TOP_FIELDS = frozenset({"seed", "events"})

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultTimeline":
        if not isinstance(payload, dict):
            raise FaultInjectionError(
                f"timeline must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - cls._TOP_FIELDS
        if unknown:
            raise FaultInjectionError(
                f"timeline carries unknown fields {sorted(unknown)}"
            )
        try:
            events = []
            for ev in payload.get("events", ()):
                bad = set(ev) - cls._EVENT_FIELDS
                if bad:
                    raise FaultInjectionError(
                        f"timeline event carries unknown fields "
                        f"{sorted(bad)}"
                    )
                events.append(FaultEvent(
                    at_packet=int(ev["at_packet"]),
                    action=str(ev["action"]),
                    target=str(ev["target"]),
                    severity=float(ev.get("severity", 1.0)),
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultInjectionError(f"malformed timeline: {exc}") from exc
        return cls(events=tuple(events), seed=int(payload.get("seed", 23)))

    @classmethod
    def parse_json(cls, text: str) -> "FaultTimeline":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(
                f"timeline is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    @classmethod
    def random(
        cls,
        seed: int,
        topology: Topology,
        n_events: int = 2,
        horizon: int = 1024,
    ) -> "FaultTimeline":
        """Synthesize a seeded random timeline over a topology's devices.

        Only the seed and the topology's device inventory determine the
        result: the same (seed, topology, n_events, horizon) always yields
        the same timeline.
        """
        rng = random.Random(seed)
        servers = sorted(s.name for s in topology.servers)
        nics = sorted(n.name for n in topology.smartnics)
        failable = sorted(set(servers[1:]) | set(nics)) or servers
        events = []
        for _ in range(n_events):
            action = rng.choice(("fail", "degrade_link", "lose_cores"))
            if action == "fail" and failable:
                target, severity = rng.choice(failable), 1.0
            elif action == "degrade_link":
                target = rng.choice(servers)
                severity = round(rng.uniform(0.3, 0.9), 3)
            else:
                action = "lose_cores"
                target = rng.choice(servers)
                severity = float(rng.randint(1, 2))
            events.append(FaultEvent(
                at_packet=rng.randrange(1, max(2, horizon)),
                action=action,
                target=target,
                severity=severity,
            ))
        events.sort(key=lambda ev: (ev.at_packet, ev.action, ev.target))
        return cls(events=tuple(events), seed=seed)


# ---------------------------------------------------------------------------
# guard configuration and chaos spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardConfig:
    """SLO-guard policy knobs.

    The guard evaluates a chain once it has injected ``window_packets``
    in the current phase; a violation is a delivered rate below
    ``threshold`` × t_min, **or** a windowed tail latency above the
    chain's ``d_max`` delay bound (for chains that declare one). The
    tail is the ``latency_quantile`` of the last ``window_packets``
    delivered-latency stamps; 0 disables latency guarding. Reactions
    ladder identically for both violation kinds: graceful degradation
    first (when ``degrade_first``) — shedding marginal rate lowers
    utilization and with it the queueing wait — then up to
    ``max_replans`` full replans.
    """

    window_packets: int = 128
    threshold: float = 1.0
    degrade_first: bool = True
    max_replans: int = 3
    #: quantile of windowed latency compared against d_max (0 = off).
    latency_quantile: float = 0.99


@dataclass(frozen=True)
class ChaosSpec(RunSpec):
    """A fully-stated, picklable chaos experiment.

    Workers rebuild the topology, chains, placer, and rack from this spec
    alone, which is what makes replica determinism checks possible. The
    spec's seed wins over the timeline's, so one knob controls the whole
    run (timeline synthesis and the rack's drop hash).
    """

    timeline: FaultTimeline = field(default_factory=FaultTimeline)
    packets_per_chain: int = 512
    guard: GuardConfig = field(default_factory=GuardConfig)

    _error: ClassVar[type] = FaultInjectionError


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


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
        return row.delivered_mbps >= t_min * (1.0 - _SLO_RTOL)

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


def phase_table(phases: Sequence[PhaseReport]) -> List[str]:
    """The per-phase, per-chain SLO table of the lifecycle and serve
    reports (the chaos table adds a ``mode`` column and stays its own)."""
    lines = [
        f"{'phase':<34} {'chain':<12} {'injected':>8} "
        f"{'delivered':>9} {'assigned':>10} {'delivered':>10} "
        f"{'t_min':>9} {'p99':>10} {'d_max':>10} {'slo':>9}",
        f"{'':<34} {'':<12} {'':>8} {'':>9} "
        f"{'Mbps':>10} {'Mbps':>10} {'Mbps':>9} "
        f"{'µs':>10} {'µs':>10} {'':>9}",
    ]
    for ph in phases:
        label = f"{ph.index}:{ph.label}"
        for row in ph.chains:
            d_max = (f"{row.latency_slo_us:>10.1f}"
                     if row.latency_slo_us > 0 else f"{'—':>10}")
            lines.append(
                f"{label:<34} {row.chain_name:<12} "
                f"{row.injected:>8} {row.delivered:>9} "
                f"{row.assigned_mbps:>10.2f} {row.delivered_mbps:>10.2f} "
                f"{ph.t_mins.get(row.chain_name, 0.0):>9.2f} "
                f"{row.latency_p99_us:>10.1f} {d_max} "
                f"{'ok' if ph.slo_met(row) else 'VIOLATED':>9}"
            )
    return lines


@dataclass
class ChaosReport:
    """Everything one chaos run produced, rendered deterministically."""

    seed: int
    phases: List[PhaseReport] = field(default_factory=list)
    events_applied: List[str] = field(default_factory=list)
    violations: int = 0
    #: subset of ``violations`` triggered by the windowed tail latency
    #: (a chain can violate on rate, latency, or both in one window).
    latency_violations: int = 0
    degradations: int = 0
    replans: int = 0
    infeasible_replans: int = 0

    @property
    def total_injected(self) -> int:
        return sum(row.injected for ph in self.phases for row in ph.chains)

    @property
    def total_delivered(self) -> int:
        return sum(row.delivered for ph in self.phases for row in ph.chains)

    @property
    def ok(self) -> bool:
        """Exit-code predicate: SLO compliance where the run *ended up*.

        Only the final phase counts — transient violations mid-timeline
        are exactly what the guard exists to repair, so the run is judged
        on the state it settled into.
        """
        return all(ph.compliant for ph in self.phases[-1:])

    def phase(self, label: str) -> PhaseReport:
        for ph in self.phases:
            if ph.label == label:
                return ph
        raise KeyError(label)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events_applied": list(self.events_applied),
            "violations": self.violations,
            "latency_violations": self.latency_violations,
            "degradations": self.degradations,
            "replans": self.replans,
            "infeasible_replans": self.infeasible_replans,
            "total_injected": self.total_injected,
            "total_delivered": self.total_delivered,
            "phases": [
                {
                    "index": ph.index,
                    "label": ph.label,
                    "mode": ph.mode,
                    "start_packet": ph.start_packet,
                    "compliant": ph.compliant,
                    "chains": ph.chain_rows(),
                }
                for ph in self.phases
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The per-phase SLO compliance table (byte-identical across runs
        with the same seed + timeline — no wall-clock quantities)."""
        lines = [f"chaos report (seed={self.seed})"]
        if self.events_applied:
            lines.append("events:")
            lines.extend(f"  {entry}" for entry in self.events_applied)
        else:
            lines.append("events: none")
        lines.append(
            f"{'phase':<28} {'mode':<10} {'chain':<12} {'injected':>8} "
            f"{'delivered':>9} {'assigned':>10} {'delivered':>10} "
            f"{'t_min':>9} {'p99':>9} {'d_max':>9} {'slo':>9}"
        )
        lines.append(
            f"{'':<28} {'':<10} {'':<12} {'':>8} {'':>9} "
            f"{'Mbps':>10} {'Mbps':>10} {'Mbps':>9} "
            f"{'µs':>9} {'µs':>9} {'':>9}"
        )
        for ph in self.phases:
            for row in ph.chains:
                label = f"{ph.index}:{ph.label}"
                d_max = (f"{row.latency_slo_us:>9.1f}"
                         if row.latency_slo_us > 0.0 else f"{'—':>9}")
                lines.append(
                    f"{label:<28} {ph.mode:<10} {row.chain_name:<12} "
                    f"{row.injected:>8} {row.delivered:>9} "
                    f"{row.assigned_mbps:>10.2f} {row.delivered_mbps:>10.2f} "
                    f"{ph.t_mins.get(row.chain_name, 0.0):>9.2f} "
                    f"{row.latency_p99_us:>9.1f} {d_max} "
                    f"{'ok' if ph.slo_met(row) else 'VIOLATED':>9}"
                )
        lines.append(
            f"totals: injected={self.total_injected} "
            f"delivered={self.total_delivered} "
            f"violations={self.violations} "
            f"(latency {self.latency_violations}) "
            f"degradations={self.degradations} replans={self.replans} "
            f"(infeasible {self.infeasible_replans})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class ChaosEngine:
    """Drive traffic, fire faults, guard SLOs, degrade, replan, redeploy."""

    def __init__(
        self,
        spec: ChaosSpec,
        *,
        chains: Optional[Sequence[NFChain]] = None,
        timeline: Optional[FaultTimeline] = None,
        topology: Optional[Topology] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        """Guard ``spec``'s run. A fabric run builds one engine per rack
        and hands each its slice — that rack's ``chains``, ``timeline``
        events and ``topology`` — which a spec cannot say."""
        self.spec = spec
        self.chains = list(
            spec.build_chains() if chains is None else chains
        )
        self.timeline = spec.timeline if timeline is None else timeline
        self.topology = (
            spec.build_topology() if topology is None else topology
        )
        if isinstance(self.topology, MultiRackTopology):
            raise FaultInjectionError(
                "ChaosEngine guards one rack; drive a fabric through "
                "run_chaos (which stitches racks via "
                "repro.sim.interrack.run_fabric_chaos)"
            )
        self.profiles = default_profiles()
        self.obs = registry if registry is not None else get_registry()
        self.timeline.validate(self.topology)

        self.placer = Placer(
            topology=self.topology,
            profiles=self.profiles,
            config=PlacerConfig(strategy=spec.strategy),
        )
        #: one for the run, so a replan regenerates only the changed units
        self.metacompiler = MetaCompiler(
            topology=self.topology, profiles=self.profiles
        )

        # mutable run state
        self.downed: set = set()
        self.link_factor: Dict[str, float] = {}
        self.lost_cores: Dict[str, int] = {}
        #: servers whose *current* placement predates their core loss —
        #: dead cores hit the running subgroups; a replan that reserves
        #: around them clears the marker (its allocation avoids them).
        self._stale_cores: set = set()
        self.placement = None
        self.rack: Optional[DeployedRack] = None
        self.traffic: Optional[TrafficEngine] = None
        self.rates: Dict[str, float] = {}

    # -- deploy / redeploy ----------------------------------------------------

    def _deploy(self, placement) -> None:
        artifacts = self.metacompiler.compile_placement(placement)
        rack = DeployedRack(
            self.topology, artifacts, self.profiles,
            seed=self.spec.seed, registry=self.obs,
        )
        self.placement = placement
        self.rack = rack
        self.rates = dict(placement.rates)
        if self.traffic is None:
            self.traffic = TrafficEngine(
                rack, placement,
                flows_per_chain=self.spec.flows_per_chain,
                batch_size=self.spec.batch_size,
            )
        else:
            self.traffic.rack = rack
            self.traffic.placement = placement
        self._refresh_faults()
        self._refresh_queueing()

    def _refresh_queueing(self) -> None:
        """Re-derive per-device utilization at the *current* rates and
        re-install the queueing model — called after every rate change
        (deploy, shed, replan) so shedding genuinely lowers the stamped
        queue delay, closing the latency guard's control loop."""
        model = QueueingModel(self.spec.queueing)
        utilization = None
        if model.enabled:
            utilization = device_utilization(
                self.placement.chains, self.rates, self.topology
            )
        self.rack.configure_queueing(model, utilization)

    def _refresh_faults(self) -> None:
        """Project the fault state onto the deployed rack.

        Full device failures drop everything routed to them. Partial
        faults (link degradation, core loss) become a per-server drop
        fraction sized by the capacity shortfall at the *current* rate
        assignment — so shedding rates genuinely relieves a degraded
        link, closing the guard's control loop.
        """
        rack = self.rack
        rack.clear_faults()
        for device in sorted(self.downed):
            rack.set_device_failed(device)
        placed_rates = dict(self.placement.rates)
        for server in self.topology.servers:
            name = server.name
            if name in self.downed:
                continue
            # link shortfall: offered load vs degraded link capacity
            capacity = (
                server.primary_nic().rate_mbps
                * self.link_factor.get(name, 1.0)
            )
            offered = server_offered_load(
                self.placement.chains, self.rates, name
            )
            link_loss = (
                max(0.0, 1.0 - capacity / offered) if offered > 0 else 0.0
            )
            # compute shortfall: cores lost vs utilization of the cores
            # the Placer allocated (utilization scales with the ratio of
            # current to placed rates — shed rates need fewer cores).
            # Only placements deployed *before* the loss are exposed: the
            # dead cores were running their subgroups. A replan reserves
            # around the dead cores, so its allocation is unaffected.
            core_loss = 0.0
            lost = self.lost_cores.get(name, 0)
            if lost > 0 and name in self._stale_cores:
                allocated = sum(
                    sg.cores
                    for cp in self.placement.chains
                    for sg in cp.subgroups
                    if sg.server == name
                )
                placed = server_offered_load(
                    self.placement.chains, placed_rates, name
                )
                current = server_offered_load(
                    self.placement.chains, self.rates, name
                )
                if allocated > 0 and placed > 0 and current > 0:
                    remaining = max(0.0, (allocated - lost) / allocated)
                    utilization = current / placed
                    core_loss = max(0.0, 1.0 - remaining / utilization)
            combined = 1.0 - (1.0 - link_loss) * (1.0 - core_loss)
            rack.set_drop_fraction(name, min(1.0, combined))

    # -- guard reactions --------------------------------------------------------

    def _shed_to_minimums(self) -> None:
        """Graceful degradation: re-solve the rate LP on the surviving
        placement, then shed every chain's marginal rate above t_min."""
        added: List[str] = []
        try:
            for device in self.downed:
                if device not in self.topology.failed_devices:
                    self.topology.mark_failed(device)
                    added.append(device)
            solution = solve_rates(self.placement.chains, self.topology)
        finally:
            for device in added:
                self.topology.failed_devices.discard(device)
        base = solution.rates if solution.feasible else dict(self.rates)
        shed = 0.0
        new_rates: Dict[str, float] = {}
        for cp in self.placement.chains:
            assigned = base.get(cp.name, self.rates.get(cp.name, 0.0))
            floor = min(assigned, cp.chain.slo.t_min)
            shed += max(0.0, assigned - floor)
            new_rates[cp.name] = floor
        self.rates = new_rates
        self.obs.counter("guard.degradations").inc()
        self.obs.gauge("guard.degraded_mode").set(1)
        self.obs.gauge("guard.shed_mbps").set(shed)
        self._refresh_faults()
        self._refresh_queueing()

    def _replan(self) -> bool:
        """Full auto-replan: re-solve placement without the failed devices
        and live-redeploy.

        Returns whether a placement survives the current failure set —
        if not, the guard is out of moves.

        Lost cores are modeled as extra per-server reservations for the
        duration of the solve, so the new placement allocates around the
        dead cores.
        """
        originals: Dict[str, int] = {}
        try:
            for name, lost in self.lost_cores.items():
                server = self.topology.server(name)
                originals[name] = server.reserved_cores
                server.reserved_cores = min(
                    server.total_cores, server.reserved_cores + lost
                )
            with self.obs.timer("replan.latency_seconds"):
                try:
                    report = self.placer.solve(PlacementRequest(
                        chains=self.chains,
                        strategy=self.spec.strategy,
                        failed_devices=tuple(sorted(self.downed)),
                        objective=self.spec.objective,
                    ))
                except PlacementError:
                    # no surviving substrate can even host the NFs — the
                    # strategy could not form a candidate, which is an
                    # infeasible replan, not a crash
                    self.obs.counter("replan.count").inc()
                    self.obs.counter("replan.infeasible").inc()
                    return False
        finally:
            for name, reserved in originals.items():
                self.topology.server(name).reserved_cores = reserved
        self.obs.counter("replan.count").inc()
        if not report.placement.feasible:
            self.obs.counter("replan.infeasible").inc()
            return False
        self._stale_cores.clear()
        self._deploy(report.placement)
        self.obs.gauge("guard.degraded_mode").set(0)
        return True

    # -- the run loop -----------------------------------------------------------

    @with_own_registry
    def run(self) -> ChaosReport:
        packets_per_chain = self.spec.packets_per_chain
        batch_size = self.spec.batch_size
        guard = self.spec.guard
        if packets_per_chain < 1:
            raise FaultInjectionError("packets_per_chain must be >= 1")
        if guard.window_packets < 1:
            raise FaultInjectionError("guard window_packets must be >= 1")
        initial = self.placer.solve(PlacementRequest(
            chains=self.chains, strategy=self.spec.strategy,
            objective=self.spec.objective,
        ))
        if not initial.placement.feasible:
            raise PlacementError(
                "chaos run needs a feasible starting placement: "
                f"{initial.placement.infeasible_reason}"
            )
        self._deploy(initial.placement)

        report = ChaosReport(seed=self.spec.seed)
        pending = self.timeline.sorted_events()
        cursors: Dict[str, int] = {}
        remaining: Dict[str, int] = {}
        for cp in self.placement.chains:
            cursors[cp.name] = 0
            remaining[cp.name] = packets_per_chain

        global_injected = 0
        mode = "normal"
        seg_injected: Dict[str, int] = {}
        seg_delivered: Dict[str, int] = {}
        #: the phase's delivered latencies, and the guard's trailing
        #: window of them (the last ``window_packets`` stamps)
        seg_latency: Dict[str, QuantileSketch] = {}
        windows: Dict[str, Deque[float]] = {}

        def open_phase(label: str) -> PhaseReport:
            phase = PhaseReport(
                index=len(report.phases),
                label=label,
                mode=mode,
                start_packet=global_injected,
                t_mins={
                    cp.name: cp.chain.slo.t_min
                    for cp in self.placement.chains
                },
            )
            for name in cursors:
                seg_injected[name] = 0
                seg_delivered[name] = 0
                seg_latency[name] = QuantileSketch()
                windows[name] = deque(maxlen=guard.window_packets)
            return phase

        def close_phase(phase: PhaseReport) -> None:
            for cp in self.placement.chains:
                name = cp.name
                phase.chains.append(ChainTrafficReport.replayed(
                    cp,
                    flows=self.spec.flows_per_chain,
                    injected=seg_injected[name],
                    delivered=seg_delivered[name],
                    latency=seg_latency[name],
                    assigned_mbps=self.rates.get(name, 0.0),
                ))
            report.phases.append(phase)

        phase = open_phase("healthy")
        while any(remaining.values()):
            # one round: every chain injects up to one batch
            for cp in self.placement.chains:
                name = cp.name
                count = min(batch_size, remaining[name])
                if count <= 0:
                    continue
                delivered, cursors[name], samples = (
                    self.traffic.replay_batch(cp, cursors[name], count)
                )
                seg_injected[name] += count
                seg_delivered[name] += delivered
                seg_latency[name].add_many(samples)
                windows[name].extend(samples)
                remaining[name] -= count
                global_injected += count

            # fire due events (batch-boundary granularity)
            fired: List[FaultEvent] = []
            while pending and pending[0].at_packet <= global_injected:
                event = pending.pop(0)
                self._apply_event(event)
                report.events_applied.append(event.describe())
                fired.append(event)
            if fired:
                self._refresh_faults()
                close_phase(phase)
                label = "fault:" + "+".join(
                    f"{ev.action}({ev.target})" for ev in fired
                )
                phase = open_phase(label)
                continue

            if mode == "exhausted":
                continue

            # SLO guard: evaluate chains with a full window in this phase
            violated: List[str] = []
            for cp in self.placement.chains:
                name = cp.name
                slo = cp.chain.slo
                injected = seg_injected[name]
                if injected < guard.window_packets:
                    continue
                rate_bad = False
                if slo.t_min > 0.0:
                    fraction = seg_delivered[name] / injected
                    delivered_mbps = self.rates.get(name, 0.0) * fraction
                    rate_bad = delivered_mbps < (
                        slo.t_min * guard.threshold * (1.0 - _SLO_RTOL)
                    )
                # tail-latency violation: windowed quantile vs d_max —
                # a rate-compliant chain can still be out of SLO here
                latency_bad = False
                if (guard.latency_quantile > 0.0
                        and not math.isinf(slo.d_max)):
                    window = windows[name]
                    if window:
                        tail = quantile(
                            window, guard.latency_quantile
                        )
                        latency_bad = tail > slo.d_max * (1.0 + _SLO_RTOL)
                if latency_bad:
                    report.latency_violations += 1
                    self.obs.counter(
                        "slo.latency_violations", chain=name
                    ).inc()
                if rate_bad or latency_bad:
                    violated.append(name)
            if not violated:
                continue

            report.violations += len(violated)
            for name in violated:
                self.obs.counter("slo.violations", chain=name).inc()
            self.obs.gauge("guard.chains_in_violation").set(len(violated))

            if mode == "normal" and guard.degrade_first:
                close_phase(phase)
                self._shed_to_minimums()
                report.degradations += 1
                mode = "degraded"
                phase = open_phase("degraded")
            elif report.replans < guard.max_replans:
                close_phase(phase)
                ok = self._replan()
                report.replans += 1
                if ok:
                    mode = "normal"
                    self.obs.gauge("guard.chains_in_violation").set(0)
                    phase = open_phase("replanned")
                else:
                    report.infeasible_replans += 1
                    mode = "exhausted"
                    phase = open_phase("replan-infeasible")
            else:
                mode = "exhausted"
                phase.mode = mode

        close_phase(phase)
        return report

    def _apply_event(self, event: FaultEvent) -> None:
        self.obs.counter(
            "faults.injected", action=event.action, target=event.target
        ).inc()
        if event.action == "fail":
            self.downed.add(event.target)
        elif event.action == "recover":
            self.downed.discard(event.target)
        elif event.action == "degrade_link":
            self.link_factor[event.target] = max(0.0, 1.0 - event.severity)
        elif event.action == "restore_link":
            self.link_factor.pop(event.target, None)
        elif event.action == "lose_cores":
            self.lost_cores[event.target] = (
                self.lost_cores.get(event.target, 0) + int(event.severity)
            )
            self._stale_cores.add(event.target)
        elif event.action == "restore_cores":
            self.lost_cores.pop(event.target, None)
            self._stale_cores.discard(event.target)
        else:  # validated up front; defensive
            raise FaultInjectionError(f"unknown action {event.action!r}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_chaos(
    spec: ChaosSpec,
    registry: Optional[MetricsRegistry] = None,
):
    """Run one chaos experiment from a fully-stated spec.

    A single-rack spec returns a :class:`ChaosReport`; a multi-rack spec
    partitions chains over the fabric, runs one guarded engine per rack
    (the fault timeline split by each target's home rack), and returns a
    :class:`~repro.sim.interrack.FabricChaosReport` (same ``ok`` /
    ``render`` / ``as_dict`` surface).
    """
    topology = spec.build_topology()
    if isinstance(topology, MultiRackTopology):
        from repro.sim.interrack import run_fabric_chaos

        return run_fabric_chaos(spec, topology, registry=registry)
    return ChaosEngine(spec, registry=registry).run()


def run_chaos_checked(
    spec: ChaosSpec,
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosReport:
    """Run a chaos experiment, optionally cross-checking determinism.

    See :func:`repro.runtime.pool.run_checked`: ``jobs - 1`` replicas of
    the same spec must render byte-identically to the local run, or a
    :class:`FaultInjectionError` is raised.
    """
    return run_checked(run_chaos, spec, jobs=jobs, registry=registry,
                       what="chaos", error=FaultInjectionError)
