"""Fault-injection timeline + SLO-guard auto-replan (chaos engineering).

Lemur's contract is that every admitted chain keeps its SLO minimum rate
while marginal throughput is maximized (§3) — but a static, healthy rack
cannot demonstrate that the contract *survives* change. This module closes
the loop the related work treats as first-class (online scaling/recovery):

* :class:`FaultTimeline` — a deterministic, seedable schedule of fault
  events (device failure/recovery, link-capacity degradation, core loss)
  keyed by **global injected-packet offsets**, so the same timeline always
  perturbs the same packets regardless of wall clock or parallelism. Its
  actions and rules are the admission core's, shared with serve's
  ``inject_fault`` (:func:`~repro.sim.admission.validate_fault`).
* :class:`ChaosEngine` — a timeline driver over the
  :class:`~repro.sim.admission.AdmissionCore`, as the lifecycle engine
  is: it replays every chain round-robin, fires events through the
  core, and runs the **SLO guard**: per-chain delivered rate is watched
  over a configurable packet window; on violation the guard first sheds
  marginal rate down to SLO minimums (the rate LP on the surviving
  placement), and if the violation persists it replans
  (:meth:`Placer.solve` with the failed devices excluded, then a delta
  redeploy). A fabric runs one timeline over all its racks.
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
from typing import ClassVar, Deque, Dict, List, Optional, Tuple

from repro.core.placement import ChainPlacement
from repro.exceptions import FaultInjectionError
from repro.hw.multirack import MultiRackTopology
from repro.obs import (
    MetricsRegistry,
    QuantileSketch,
    quantile,
    with_own_registry,
)
from repro.runtime.pool import run_checked
from repro.sim.admission import (
    AdmissionCore,
    PhaseReport,
    phase_table,
    validate_fault,
)
from repro.sim.traffic import RunSpec
from repro.units import SLO_RTOL


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
            extra = f" cores={self.severity:g}"
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

    def validate(self, topology) -> None:
        """Reject events that cannot apply to this rack or fabric: an
        offset that is not an integer >= 0, or whatever
        :func:`~repro.sim.admission.validate_fault` rejects."""
        for ev in self.events:
            if (isinstance(ev.at_packet, bool)
                    or not isinstance(ev.at_packet, int)
                    or ev.at_packet < 0):
                raise FaultInjectionError(
                    f"event {ev.action} {ev.target}: at_packet must be "
                    f"an integer >= 0, got {ev.at_packet!r}"
                )
            validate_fault(ev.action, ev.target, ev.severity, topology)

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
                # offsets and severities keep their JSON types, so
                # validate() refuses a float offset or a bool rather
                # than a coercion truncating it
                events.append(FaultEvent(
                    at_packet=ev["at_packet"],
                    action=str(ev["action"]),
                    target=str(ev["target"]),
                    severity=ev.get("severity", 1.0),
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
        topology,
        n_events: int = 2,
        horizon: int = 1024,
    ) -> "FaultTimeline":
        """Synthesize a seeded random timeline over a rack's or a
        fabric's devices.

        Only the seed and the topology's device inventory determine the
        result: the same (seed, topology, n_events, horizon) always yields
        the same timeline.
        """
        rng = random.Random(seed)
        racks = (list(topology.racks.values())
                 if isinstance(topology, MultiRackTopology) else [topology])
        servers = sorted(s.name for rack in racks for s in rack.servers)
        nics = sorted(n.name for rack in racks for n in rack.smartnics)
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
        lines.extend(
            phase_table(self.phases, label=28, latency=9, modes=True)
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
    """Drive traffic, fire faults and guard SLOs over an admission core.

    The core holds the racks and the fault state and makes every move
    (:meth:`~repro.sim.admission.AdmissionCore.apply_fault`,
    :meth:`~repro.sim.admission.AdmissionCore.shed`,
    :meth:`~repro.sim.admission.AdmissionCore.replan`); the engine
    decides when, and accounts the phases.
    """

    def __init__(
        self,
        spec: ChaosSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        self.core = AdmissionCore(spec, registry=registry)
        self.obs = self.core.obs
        spec.timeline.validate(self.core.fabric)

    def _chains(self) -> List[ChainPlacement]:
        """Every chain in injection order: racks sorted, each rack's
        chains in its placement's order (one rack's injection sequence
        numbers follow the order its chains inject in)."""
        racks = self.core.placement.racks
        return [cp for rack in sorted(racks) for cp in racks[rack].chains]

    # -- the run loop -----------------------------------------------------------

    @with_own_registry
    def run(self) -> ChaosReport:
        spec = self.spec
        guard = spec.guard
        core = self.core
        if spec.packets_per_chain < 1:
            raise FaultInjectionError("packets_per_chain must be >= 1")
        if guard.window_packets < 1:
            raise FaultInjectionError("guard window_packets must be >= 1")
        core.bootstrap()

        report = ChaosReport(seed=spec.seed)
        pending = spec.timeline.sorted_events()
        remaining = {cp.name: spec.packets_per_chain for cp in self._chains()}

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
                    cp.name: cp.chain.slo.t_min for cp in self._chains()
                },
            )
            for name in remaining:
                seg_injected[name] = 0
                seg_delivered[name] = 0
                seg_latency[name] = QuantileSketch()
                windows[name] = deque(maxlen=guard.window_packets)
            return phase

        def close_phase(phase: PhaseReport) -> None:
            phase.chains.extend(
                core.row(cp, seg_injected[cp.name], seg_delivered[cp.name],
                         seg_latency[cp.name])
                for cp in self._chains()
            )
            report.phases.append(phase)

        phase = open_phase("healthy")
        while any(remaining.values()):
            # one round: every chain injects up to one batch
            for cp in self._chains():
                name = cp.name
                count = min(spec.batch_size, remaining[name])
                if count <= 0:
                    continue
                delivered, samples = core.replay_batch(cp, count)
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
                core.apply_fault(event.action, event.target, event.severity)
                report.events_applied.append(event.describe())
                fired.append(event)
            if fired:
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
            for cp in self._chains():
                name = cp.name
                t_min = cp.chain.slo.t_min
                # end-to-end: the stamped latency includes the RTT
                d_max = core.d_max[name]
                injected = seg_injected[name]
                if injected < guard.window_packets:
                    continue
                rate_bad = False
                if t_min > 0.0:
                    fraction = seg_delivered[name] / injected
                    delivered_mbps = core.rates.get(name, 0.0) * fraction
                    rate_bad = delivered_mbps < (
                        t_min * guard.threshold * (1.0 - SLO_RTOL)
                    )
                # tail-latency violation: windowed quantile vs d_max —
                # a rate-compliant chain can still be out of SLO here
                latency_bad = False
                if guard.latency_quantile > 0.0 and not math.isinf(d_max):
                    window = windows[name]
                    if window:
                        tail = quantile(window, guard.latency_quantile)
                        latency_bad = tail > d_max * (1.0 + SLO_RTOL)
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
            # react on the racks that host a violating chain
            racks = sorted({core.assignment[name] for name in violated})

            if mode == "normal" and guard.degrade_first:
                close_phase(phase)
                core.shed(racks)
                report.degradations += 1
                mode = "degraded"
                phase = open_phase("degraded")
            elif report.replans < guard.max_replans:
                close_phase(phase)
                replanned = core.replan(racks).accepted
                report.replans += 1
                if replanned:
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


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_chaos(
    spec: ChaosSpec,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosReport:
    """Run one chaos experiment from a fully-stated spec, on a rack or a
    fabric. A fabric runs one timeline: offsets count the packets
    injected fabric-wide, the guard reacts on the racks hosting a
    violating chain, and rows carry each chain's end-to-end ``d_max``."""
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
