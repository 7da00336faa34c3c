"""Online chain lifecycle: arrivals, scaling, departures (§7, online).

A static placement answers "can this chain set meet its SLOs?" once. An
operator's rack answers it continuously: tenants arrive with an SLO,
scale their minimum rate, and leave — and every transition must preserve
the already-admitted chains' guarantees without redeploying the world.
This module closes that loop:

* :class:`ChainEvent` / :class:`LifecycleTimeline` — a deterministic,
  seedable schedule of lifecycle events (``arrive`` with a spec + SLO,
  ``scale`` of t_min, ``depart``) keyed by integer ticks. Events sharing
  a tick are applied departures-first, so capacity freed at a tick is
  visible to that tick's admissions.
* :class:`LifecycleEngine` — replays the timeline against a live
  :class:`~repro.sim.runtime.DeployedRack` driven by the
  :class:`~repro.sim.traffic.TrafficEngine`. Each event goes through
  **admission control**: the proposed chain set is solved incrementally
  (:class:`~repro.core.placer.PlacementRequest` with ``base_placement``
  — existing chains keep their NF→device assignments and are only ever
  shrunk to their t_min floor, never below), and an infeasible solve
  rejects the event with its binding constraint instead of evicting an
  admitted chain. Accepted transitions go through the meta-compiler and
  a **delta redeploy** (:meth:`~repro.sim.runtime.DeployedRack.redeploy`)
  that rebuilds only devices whose generated programs changed.
* :class:`AdmissionDecision` / :class:`LifecycleReport` — one typed
  decision per event (accepted or rejected + reason, solve mode, pin
  counts, per-device redeploy actions) and a per-phase SLO compliance
  table whose rendering is byte-identical across repeated runs and
  ``--jobs`` settings.

Observability: ``lifecycle.events{action=...}``,
``lifecycle.admission{decision=accepted|rejected}``,
``lifecycle.evictions_averted`` (rejections whose binding constraint was
an admitted chain's t_min floor), the ``lifecycle.active_chains`` gauge,
``placer.solve.seconds{mode=incremental|full}`` timings from the solver,
and ``rack.redeploy.devices{action=...}`` from the delta redeploy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Sequence, Tuple

from repro.exceptions import LifecycleError
from repro.obs import MetricsRegistry
from repro.runtime.pool import run_checked
from repro.sim.admission import (
    LIFECYCLE_ACTIONS,
    AdmissionCore,
    AdmissionDecision,
    ChainEvent,
    PhaseReport,
    phase_table,
)
from repro.sim.traffic import RunSpec

#: within a tick, departures free capacity before admissions consume it.
_ACTION_ORDER = {"depart": 0, "scale": 1, "arrive": 2}


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------


def _event_dict(ev: ChainEvent) -> dict:
    """One event's wire form. Infinities are not JSON: an unbounded
    ``t_max_mbps`` or ``d_max_us`` is left out, and absent means unbounded
    (:meth:`LifecycleTimeline.from_dict`)."""
    out = {
        "at": ev.at,
        "action": ev.action,
        "chain": ev.chain,
        "spec": ev.spec,
        "t_min_mbps": ev.t_min_mbps,
    }
    if ev.t_max_mbps != float("inf"):
        out["t_max_mbps"] = ev.t_max_mbps
    if ev.d_max_us != float("inf"):
        out["d_max_us"] = ev.d_max_us
    return out


@dataclass(frozen=True)
class LifecycleTimeline:
    """An ordered, validated schedule of :class:`ChainEvent`.

    ``seed`` feeds :meth:`random` synthesis and the rack's deterministic
    drop hash, so (seed, timeline) fully determines a lifecycle run.
    """

    events: Tuple[ChainEvent, ...] = ()
    seed: int = 23

    def sorted_events(self) -> List[ChainEvent]:
        """Events by (tick, depart<scale<arrive, declaration order)."""
        return [
            ev for _, ev in sorted(
                enumerate(self.events),
                key=lambda pair: (
                    pair[1].at, _ACTION_ORDER[pair[1].action], pair[0]
                ),
            )
        ]

    def validate(self) -> None:
        """Reject statically-malformed events (:meth:`ChainEvent.validate`)."""
        for ev in self.events:
            ev.validate()

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "events": [_event_dict(ev) for ev in self.events],
            },
            indent=2,
            sort_keys=True,
            default=str,
        )

    #: the exhaustive wire fields; anything else is rejected so schema
    #: typos fail loudly instead of silently defaulting.
    _EVENT_FIELDS = frozenset({
        "at", "action", "chain", "spec",
        "t_min_mbps", "t_max_mbps", "d_max_us",
    })
    _TOP_FIELDS = frozenset({"seed", "events"})

    @classmethod
    def from_dict(cls, payload: dict) -> "LifecycleTimeline":
        if not isinstance(payload, dict):
            raise LifecycleError(
                f"timeline must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - cls._TOP_FIELDS
        if unknown:
            raise LifecycleError(
                f"timeline carries unknown fields {sorted(unknown)}"
            )
        try:
            events = []
            for ev in payload.get("events", ()):
                bad = set(ev) - cls._EVENT_FIELDS
                if bad:
                    raise LifecycleError(
                        f"timeline event carries unknown fields "
                        f"{sorted(bad)}"
                    )
                events.append(ChainEvent(
                    at=int(ev["at"]),
                    action=str(ev["action"]),
                    chain=str(ev["chain"]),
                    spec=str(ev.get("spec", "")),
                    t_min_mbps=float(ev.get("t_min_mbps", 0.0)),
                    t_max_mbps=float(ev.get("t_max_mbps", float("inf"))),
                    d_max_us=float(ev.get("d_max_us", float("inf"))),
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise LifecycleError(f"malformed timeline: {exc}") from exc
        timeline = cls(events=tuple(events),
                       seed=int(payload.get("seed", 23)))
        timeline.validate()
        return timeline

    @classmethod
    def parse_json(cls, text: str) -> "LifecycleTimeline":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LifecycleError(
                f"timeline is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    @classmethod
    def random(
        cls,
        seed: int,
        n_events: int = 8,
        base_names: Sequence[str] = (),
        t_min_range: Tuple[float, float] = (300.0, 1500.0),
    ) -> "LifecycleTimeline":
        """Synthesize a seeded arrival/scale/departure schedule.

        Only the arguments determine the result. Arrivals draw small
        linear chains from a fixed NF menu under names ``dyn0, dyn1, …``;
        scales and departures target chains known to exist at that tick
        (base chains or earlier arrivals not yet departed), so a random
        timeline never trips the static validator.
        """
        menu = (
            "Monitor -> IPv4Fwd",
            "ACL -> IPv4Fwd",
            "ACL -> Monitor -> IPv4Fwd",
            "BPF -> IPv4Fwd",
        )
        rng = random.Random(seed)
        alive: List[str] = list(base_names)
        dynamic: List[str] = []
        events: List[ChainEvent] = []
        arrivals = 0
        for tick in range(1, n_events + 1):
            candidates = ["arrive"]
            if dynamic:
                candidates += ["scale", "depart"]
            elif alive:
                candidates += ["scale"]
            action = rng.choice(candidates)
            if action == "arrive":
                name = f"dyn{arrivals}"
                arrivals += 1
                body = rng.choice(menu)
                t_min = round(rng.uniform(*t_min_range), 1)
                events.append(ChainEvent(
                    at=tick, action="arrive", chain=name,
                    spec=f"chain {name}: {body}",
                    t_min_mbps=t_min,
                    t_max_mbps=round(t_min * rng.uniform(2.0, 8.0), 1),
                ))
                alive.append(name)
                dynamic.append(name)
            elif action == "scale":
                name = rng.choice(alive)
                events.append(ChainEvent(
                    at=tick, action="scale", chain=name,
                    t_min_mbps=round(rng.uniform(*t_min_range), 1),
                ))
            else:
                name = rng.choice(dynamic)
                events.append(ChainEvent(
                    at=tick, action="depart", chain=name,
                ))
                alive.remove(name)
                dynamic.remove(name)
        return cls(events=tuple(events), seed=seed)


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifecycleSpec(RunSpec):
    """A fully-stated, picklable lifecycle experiment.

    Workers rebuild everything from this spec alone, enabling the same
    replica determinism check the chaos engine runs. ``slos`` covers the
    initial chains; the spec's seed wins over the timeline's, so one knob
    controls the whole run (timeline synthesis and the rack's drop hash).
    """

    timeline: LifecycleTimeline = field(default_factory=LifecycleTimeline)
    packets_per_phase: int = 256
    #: re-solve every event from scratch instead of warm-starting from the
    #: current placement (the experiment baseline the incremental path is
    #: compared against).
    full_resolve: bool = False

    _error: ClassVar[type] = LifecycleError


# ---------------------------------------------------------------------------
# report (decisions live in repro.sim.admission, shared with the daemon)
# ---------------------------------------------------------------------------


@dataclass
class LifecycleReport:
    """Everything one lifecycle run produced, rendered deterministically."""

    seed: int
    decisions: List[AdmissionDecision] = field(default_factory=list)
    phases: List[PhaseReport] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(1 for d in self.decisions if d.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for d in self.decisions if not d.accepted)

    @property
    def ok(self) -> bool:
        """SLO compliance across every phase (the exit-code predicate)."""
        return all(ph.compliant for ph in self.phases)

    @property
    def total_injected(self) -> int:
        return sum(row.injected for ph in self.phases for row in ph.chains)

    @property
    def total_delivered(self) -> int:
        return sum(row.delivered for ph in self.phases for row in ph.chains)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "total_injected": self.total_injected,
            "total_delivered": self.total_delivered,
            "decisions": [d.as_dict() for d in self.decisions],
            "phases": [
                {
                    "index": ph.index,
                    "label": ph.label,
                    "mode": ph.mode,
                    "compliant": ph.compliant,
                    "chains": ph.chain_rows(),
                }
                for ph in self.phases
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The per-event + per-phase table (byte-identical across runs
        with the same seed + timeline — no wall-clock quantities)."""
        lines = [f"lifecycle report (seed={self.seed})"]
        if self.decisions:
            lines.append("events:")
            lines.extend(f"  {d.describe()}" for d in self.decisions)
        else:
            lines.append("events: none")
        lines.extend(phase_table(self.phases))
        lines.append(
            f"totals: events={len(self.decisions)} "
            f"accepted={self.accepted} rejected={self.rejected} "
            f"injected={self.total_injected} "
            f"delivered={self.total_delivered}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


class LifecycleEngine:
    """Admit, place incrementally, delta-redeploy, and drive traffic.

    A thin timeline-replay front-end over the shared
    :class:`~repro.sim.admission.AdmissionCore` (the serve daemon is the
    other front-end): the engine orders events into ticks and phases,
    the core owns the rack and every admission decision.
    """

    def __init__(
        self,
        spec: LifecycleSpec,
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.spec = spec
        spec.timeline.validate()
        self.core = AdmissionCore(
            spec, registry=registry, full_resolve=spec.full_resolve,
        )

    # -- the run loop -----------------------------------------------------------

    def run(self) -> LifecycleReport:
        packets_per_phase = self.spec.packets_per_phase
        if packets_per_phase < 1:
            raise LifecycleError("packets_per_phase must be >= 1")
        core = self.core
        core.bootstrap()

        report = LifecycleReport(seed=self.spec.seed)
        report.phases.append(core.run_phase(
            "initial", packets_per_phase,
            index=0, start_packet=0,
        ))

        pending = self.spec.timeline.sorted_events()
        while pending:
            tick = pending[0].at
            fired: List[ChainEvent] = []
            while pending and pending[0].at == tick:
                event = pending.pop(0)
                report.decisions.append(core.process(event))
                fired.append(event)
            label = f"t{tick}:" + "+".join(
                f"{ev.action}({ev.chain})" for ev in fired
            )
            report.phases.append(core.run_phase(
                label, packets_per_phase,
                index=len(report.phases),
                start_packet=report.total_injected,
            ))
        return report


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_lifecycle(
    spec: LifecycleSpec,
    registry: Optional[MetricsRegistry] = None,
) -> LifecycleReport:
    """Run one lifecycle experiment from a fully-stated spec."""
    return LifecycleEngine(spec, registry=registry).run()


def run_lifecycle_checked(
    spec: LifecycleSpec,
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> LifecycleReport:
    """Run a lifecycle experiment, optionally cross-checking determinism.

    See :func:`repro.runtime.pool.run_checked`: ``jobs - 1`` replicas of
    the same spec must render byte-identically to the local run, or a
    :class:`LifecycleError` is raised.
    """
    return run_checked(run_lifecycle, spec, jobs=jobs, registry=registry,
                       what="lifecycle", error=LifecycleError)


# re-exported so report consumers need one import
__all__ = [
    "LIFECYCLE_ACTIONS",
    "AdmissionDecision",
    "ChainEvent",
    "LifecycleEngine",
    "LifecycleReport",
    "LifecycleSpec",
    "LifecycleTimeline",
    "run_lifecycle",
    "run_lifecycle_checked",
]
