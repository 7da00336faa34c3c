"""Typed day-0/day-2 commands for the control-plane daemon.

The daemon's wire API mirrors the placement API's request/response shape
(:class:`~repro.core.placer.PlacementRequest` →
:class:`~repro.core.placer.PlacementReport`): every command is a frozen
dataclass with a canonical JSON form, every response is a typed
:class:`CommandOutcome` carrying the core's
:class:`~repro.sim.admission.AdmissionDecision` verbatim. Parsing is
strict — unknown kinds and unknown fields are rejected with
:class:`~repro.exceptions.CommandError` instead of silently defaulting,
because a typo'd field on an admission request must not admit a chain
under the wrong SLO.

Day-0 commands (``arrive``) bring a chain onto the rack; day-2 commands
(``scale``/``depart``/``inject_fault``) operate it. ``snapshot`` is the
one read-only command: it flows through the same serialized queue (so it
observes a consistent state) but is never journaled and consumes no
sequence number.

:func:`command_schemas` exports one JSON schema per kind with
``additionalProperties: false``, served at ``GET /v1/schema`` so tenants
can validate client-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.exceptions import CommandError, FaultInjectionError, LifecycleError
from repro.sim.admission import (
    FAULT_ACTIONS,
    AdmissionDecision,
    ChainEvent,
    validate_fault,
)

_INF = float("inf")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check_event(kind: str, event: ChainEvent) -> None:
    """A lifecycle command's static check is its event's."""
    try:
        event.validate()
    except LifecycleError as exc:
        raise CommandError(f"{kind}: {exc}") from exc


@dataclass(frozen=True)
class Arrive:
    """Day-0: admit a new chain under an SLO contract."""

    chain: str
    spec: str
    t_min_mbps: float
    t_max_mbps: float = _INF
    d_max_us: float = _INF

    kind = "arrive"

    def validate(self) -> None:
        _check_event(self.kind, self.to_event(at=0))

    def to_event(self, at: int) -> ChainEvent:
        return ChainEvent(
            at=at, action="arrive", chain=self.chain, spec=self.spec,
            t_min_mbps=self.t_min_mbps, t_max_mbps=self.t_max_mbps,
            d_max_us=self.d_max_us,
        )

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "chain": self.chain,
            "spec": self.spec,
            "t_min_mbps": self.t_min_mbps,
        }
        # infinities are not JSON; absent means unbounded
        if self.t_max_mbps != _INF:
            out["t_max_mbps"] = self.t_max_mbps
        if self.d_max_us != _INF:
            out["d_max_us"] = self.d_max_us
        return out

    def describe(self) -> str:
        return f"arrive({self.chain})"


@dataclass(frozen=True)
class Scale:
    """Day-2: rescale an admitted chain's SLO floor (and optionally cap)."""

    chain: str
    t_min_mbps: float
    t_max_mbps: float = _INF

    kind = "scale"

    def validate(self) -> None:
        _check_event(self.kind, self.to_event(at=0))

    def to_event(self, at: int) -> ChainEvent:
        return ChainEvent(
            at=at, action="scale", chain=self.chain,
            t_min_mbps=self.t_min_mbps, t_max_mbps=self.t_max_mbps,
        )

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "chain": self.chain,
            "t_min_mbps": self.t_min_mbps,
        }
        if self.t_max_mbps != _INF:
            out["t_max_mbps"] = self.t_max_mbps
        return out

    def describe(self) -> str:
        return f"scale({self.chain})"


@dataclass(frozen=True)
class Depart:
    """Day-2: release a chain and its resources."""

    chain: str

    kind = "depart"

    def validate(self) -> None:
        _check_event(self.kind, self.to_event(at=0))

    def to_event(self, at: int) -> ChainEvent:
        return ChainEvent(at=at, action="depart", chain=self.chain)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "chain": self.chain}

    def describe(self) -> str:
        return f"depart({self.chain})"


@dataclass(frozen=True)
class InjectFault:
    """Day-2: apply a fault to a device of the live rack or fabric, with
    the chaos timeline's actions and meaning
    (:data:`~repro.sim.admission.FAULT_ACTIONS`): ``degrade_link`` leaves
    ``1 − severity`` of a server link's capacity and ``lose_cores`` takes
    ``severity`` cores, each dropping the shortfall at the rates in
    force. Faults perturb the dataplane without triggering a shed or a
    replan — the per-phase SLO table shows the damage."""

    action: str
    target: str
    severity: float = 1.0

    kind = "inject_fault"

    def validate(self) -> None:
        """The rules that need no topology; the core checks the target
        against the racks when it applies the fault."""
        try:
            validate_fault(self.action, self.target, self.severity)
        except FaultInjectionError as exc:
            raise CommandError(f"inject_fault: {exc}") from exc
        if not self.target:
            raise CommandError("inject_fault: 'target' must be non-empty")

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "action": self.action,
            "target": self.target,
        }
        if self.severity != 1.0:
            out["severity"] = self.severity
        return out

    def describe(self) -> str:
        return f"{self.action}({self.target})"


@dataclass(frozen=True)
class Snapshot:
    """Read-only: a consistent view of the control-plane state.

    Serialized through the same queue as mutations (so it never observes
    a half-applied transition) but never journaled.
    """

    kind = "snapshot"

    def validate(self) -> None:  # nothing to check
        return None

    def as_dict(self) -> dict:
        return {"kind": self.kind}

    def describe(self) -> str:
        return "snapshot"


Command = Union[Arrive, Scale, Depart, InjectFault, Snapshot]

#: kinds that mutate rack state, consume a sequence number, and are
#: journaled for crash recovery. ``snapshot`` is deliberately absent.
MUTATING_KINDS = ("arrive", "scale", "depart", "inject_fault")

_COMMAND_TYPES: Dict[str, type] = {
    "arrive": Arrive,
    "scale": Scale,
    "depart": Depart,
    "inject_fault": InjectFault,
    "snapshot": Snapshot,
}

#: wire fields per kind (beyond the discriminator); used for both strict
#: parsing and the exported JSON schemas.
_COMMAND_FIELDS: Dict[str, Dict[str, dict]] = {
    "arrive": {
        "chain": {"type": "string"},
        "spec": {"type": "string"},
        "t_min_mbps": {"type": "number", "exclusiveMinimum": 0},
        "t_max_mbps": {"type": "number"},
        "d_max_us": {"type": "number", "exclusiveMinimum": 0},
    },
    "scale": {
        "chain": {"type": "string"},
        "t_min_mbps": {"type": "number", "exclusiveMinimum": 0},
        "t_max_mbps": {"type": "number"},
    },
    "depart": {
        "chain": {"type": "string"},
    },
    "inject_fault": {
        "action": {"type": "string", "enum": sorted(FAULT_ACTIONS)},
        "target": {"type": "string"},
        "severity": {"type": "number", "exclusiveMinimum": 0},
    },
    "snapshot": {},
}

_REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "arrive": ("chain", "spec", "t_min_mbps"),
    "scale": ("chain", "t_min_mbps"),
    "depart": ("chain",),
    "inject_fault": ("action", "target"),
    "snapshot": (),
}

_FLOAT_FIELDS = frozenset({
    "t_min_mbps", "t_max_mbps", "d_max_us", "severity",
})


def parse_command(payload: object) -> Command:
    """Strictly parse one wire-form command object.

    Unknown ``kind`` values, unknown fields, missing required fields, and
    mistyped values all raise :class:`~repro.exceptions.CommandError`;
    the parsed command is additionally :meth:`validate`-d so a response
    of 200/409 always refers to a well-formed request.
    """
    if not isinstance(payload, dict):
        raise CommandError(
            f"command must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind not in _COMMAND_TYPES:
        raise CommandError(
            f"unknown command kind {kind!r}; "
            f"choose from {sorted(_COMMAND_TYPES)}"
        )
    allowed = set(_COMMAND_FIELDS[kind]) | {"kind"}
    unknown = set(payload) - allowed
    if unknown:
        raise CommandError(
            f"{kind}: unknown fields {sorted(unknown)}"
        )
    missing = [f for f in _REQUIRED_FIELDS[kind] if f not in payload]
    if missing:
        raise CommandError(f"{kind}: missing required fields {missing}")
    kwargs = {}
    for name in _COMMAND_FIELDS[kind]:
        if name not in payload:
            continue
        value = payload[name]
        try:
            kwargs[name] = (
                float(value) if name in _FLOAT_FIELDS else str(value)
            )
        except (TypeError, ValueError) as exc:
            raise CommandError(
                f"{kind}: field {name!r} is malformed: {exc}"
            ) from exc
    command = _COMMAND_TYPES[kind](**kwargs)
    command.validate()
    return command


def command_schemas() -> dict:
    """One draft-07-style JSON schema per command kind
    (``additionalProperties: false`` — the wire is strict)."""
    schemas = {}
    for kind, fields in _COMMAND_FIELDS.items():
        properties = {"kind": {"const": kind}}
        properties.update(fields)
        schemas[kind] = {
            "type": "object",
            "properties": properties,
            "required": ["kind", *_REQUIRED_FIELDS[kind]],
            "additionalProperties": False,
        }
    return {
        "commands": schemas,
        "outcome": CommandOutcome.schema(),
    }


# ---------------------------------------------------------------------------
# outcome
# ---------------------------------------------------------------------------

#: outcome statuses and the HTTP codes the front-end maps them to.
STATUS_APPLIED = "applied"      # 200 — state advanced (or snapshot read)
STATUS_REJECTED = "rejected"    # 409 — admission refused; state untouched
STATUS_INVALID = "invalid"      # 400 — malformed/unsatisfiable request
STATUS_ERROR = "error"          # 500 — internal failure

_STATUSES = (
    STATUS_APPLIED, STATUS_REJECTED, STATUS_INVALID, STATUS_ERROR,
)


@dataclass(frozen=True)
class CommandOutcome:
    """The daemon's typed response to one command.

    ``seq`` is the journal sequence the command consumed (the current
    head for snapshots and invalid requests). ``decision`` carries the
    admission core's verdict verbatim for lifecycle commands; fault
    probes and snapshots have none. ``digest`` is the post-command
    :meth:`~repro.sim.admission.AdmissionCore.state_digest` — two
    daemons that report equal digests will make byte-identical decisions
    from here on.
    """

    seq: int
    kind: str
    status: str
    decision: Optional[AdmissionDecision] = None
    error: str = ""
    digest: str = ""
    snapshot: Optional[dict] = None

    @property
    def applied(self) -> bool:
        return self.status == STATUS_APPLIED

    def as_dict(self) -> dict:
        out: dict = {
            "seq": self.seq,
            "kind": self.kind,
            "status": self.status,
        }
        if self.decision is not None:
            out["decision"] = self.decision.as_dict()
        if self.error:
            out["error"] = self.error
        if self.digest:
            out["digest"] = self.digest
        if self.snapshot is not None:
            out["snapshot"] = self.snapshot
        return out

    _FIELDS = frozenset({
        "seq", "kind", "status", "decision", "error", "digest", "snapshot",
    })

    @classmethod
    def from_dict(cls, payload: object) -> "CommandOutcome":
        if not isinstance(payload, dict):
            raise CommandError(
                f"outcome must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - cls._FIELDS
        if unknown:
            raise CommandError(
                f"outcome carries unknown fields {sorted(unknown)}"
            )
        status = payload.get("status")
        if status not in _STATUSES:
            raise CommandError(
                f"outcome status {status!r} not in {sorted(_STATUSES)}"
            )
        decision = payload.get("decision")
        try:
            return cls(
                seq=int(payload["seq"]),
                kind=str(payload["kind"]),
                status=str(status),
                decision=(
                    AdmissionDecision.from_dict(decision)
                    if decision is not None else None
                ),
                error=str(payload.get("error", "")),
                digest=str(payload.get("digest", "")),
                snapshot=payload.get("snapshot"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CommandError(f"malformed outcome: {exc}") from exc

    @classmethod
    def schema(cls) -> dict:
        return {
            "type": "object",
            "properties": {
                "seq": {"type": "integer", "minimum": 0},
                "kind": {"type": "string"},
                "status": {"enum": sorted(_STATUSES)},
                "decision": {"type": "object"},
                "error": {"type": "string"},
                "digest": {"type": "string"},
                "snapshot": {"type": "object"},
            },
            "required": ["seq", "kind", "status"],
            "additionalProperties": False,
        }

    @classmethod
    def http_status(cls, status: str) -> int:
        return {
            STATUS_APPLIED: 200,
            STATUS_REJECTED: 409,
            STATUS_INVALID: 400,
            STATUS_ERROR: 500,
        }.get(status, 500)


__all__ = [
    "Arrive",
    "Scale",
    "Depart",
    "InjectFault",
    "Snapshot",
    "Command",
    "CommandOutcome",
    "MUTATING_KINDS",
    "STATUS_APPLIED",
    "STATUS_REJECTED",
    "STATUS_INVALID",
    "STATUS_ERROR",
    "command_schemas",
    "parse_command",
]
