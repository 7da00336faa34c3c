"""The always-on control-plane daemon behind ``repro serve``.

One :class:`ServeDaemon` owns one live rack, or one fabric of racks
(the same admission core runs both). A single asyncio worker
task (:meth:`ServeDaemon._worker_loop`) is the only code that touches
the :class:`~repro.sim.admission.AdmissionCore`; concurrent tenants —
HTTP handler threads, in-process callers, tests — submit typed commands
through :meth:`ServeDaemon.submit` and an :class:`asyncio.Queue`, so
every mutation is serialized without locks. Admission routes through the
incremental ``Placer.solve(base_placement=...)`` path with delta
redeploy, exactly as the batch lifecycle engine does (the two share the
core).

Durability and recovery (see :mod:`repro.serve.journal`):

* every applied mutating command is journaled (fsync) *before* the
  client is acknowledged, and the rack state checkpoints every
  ``checkpoint_every`` commands plus at graceful shutdown;
* a killed daemon restarts by loading the checkpoint and replaying the
  journal suffix through the same deterministic core, reconstructing a
  byte-identical rack — same placements, same replay cursors, same
  injection sequence, same
  :meth:`~repro.sim.admission.AdmissionCore.state_digest` — so
  subsequent admission decisions and traffic phases are byte-identical
  to an uninterrupted run;
* the journal is the only truth and the checkpoint a disposable cache of
  its replay: one that does not unpickle, or that other code wrote, is
  discarded, the whole journal replayed from a cold bootstrap, and a
  fresh checkpoint written.

The daemon's configuration is persisted to ``config.json`` inside the
state directory on first start and verified on every restart: recovery
against a different chain set or seed would replay the journal into a
different rack, so a mismatch fails loudly instead.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, List, Optional, Tuple, Union

from repro.exceptions import (
    CommandError,
    FaultInjectionError,
    ReproError,
    ServeError,
    TopologyError,
)
from repro.hw.spec import TopologySpec
from repro.obs import MetricsRegistry
from repro.serve.commands import (
    STATUS_APPLIED,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_REJECTED,
    Command,
    CommandOutcome,
    InjectFault,
    Snapshot,
    parse_command,
)
from repro.serve.journal import CheckpointStore, Journal
from repro.sim.admission import (
    AdmissionCore,
    AdmissionDecision,
    PhaseReport,
    phase_table,
)
from repro.sim.traffic import RunSpec

_QueueItem = Optional[Tuple[Command, "asyncio.Future[CommandOutcome]"]]


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig(RunSpec):
    """A fully-stated daemon configuration (the recovery contract).

    Everything that shapes the deterministic state evolution lives here;
    (config, applied-command sequence) fully determines the rack — replay
    on another topology would rebuild a different fabric, under another
    queueing model it would stamp different latencies. The config is
    persisted alongside the journal and verified on restart. ``slos``
    covers the initial chains.
    """

    packets_per_phase: int = 64
    #: checkpoint every N applied commands; 0 disables periodic
    #: checkpoints (recovery then replays the full journal).
    checkpoint_every: int = 8

    _error: ClassVar[type] = ServeError

    def validate(self) -> None:
        if self.packets_per_phase < 1:
            raise ServeError("packets_per_phase must be >= 1")
        if self.checkpoint_every < 0:
            raise ServeError("checkpoint_every must be >= 0")

    def as_dict(self) -> dict:
        return {
            "spec_text": self.spec_text,
            "slos": [list(bounds) for bounds in self.slos],
            "topology": self.topology.as_dict(),
            "packets_per_phase": self.packets_per_phase,
            "flows_per_chain": self.flows_per_chain,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "strategy": self.strategy,
            "checkpoint_every": self.checkpoint_every,
            "queueing": self.queueing,
            "objective": self.objective,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    _FIELDS = frozenset({
        "spec_text", "slos", "topology", "packets_per_phase",
        "flows_per_chain", "batch_size", "seed", "strategy",
        "checkpoint_every", "queueing", "objective",
    })

    @classmethod
    def from_dict(cls, payload: object) -> "ServeConfig":
        if not isinstance(payload, dict):
            raise ServeError(
                f"serve config must be an object, "
                f"got {type(payload).__name__}"
            )
        unknown = set(payload) - cls._FIELDS
        if unknown:
            raise ServeError(
                f"serve config carries unknown fields {sorted(unknown)}"
            )
        try:
            return cls(
                spec_text=str(payload["spec_text"]),
                slos=tuple(
                    tuple(float(x) for x in bounds)
                    for bounds in payload["slos"]
                ),
                topology=TopologySpec.from_dict(payload["topology"]),
                packets_per_phase=int(payload.get("packets_per_phase", 64)),
                flows_per_chain=int(payload.get("flows_per_chain", 32)),
                batch_size=int(payload.get("batch_size", 32)),
                seed=int(payload.get("seed", 23)),
                strategy=str(payload.get("strategy", "lemur")),
                checkpoint_every=int(payload.get("checkpoint_every", 8)),
                queueing=str(payload.get("queueing", "none")),
                objective=str(payload.get("objective", "throughput")),
            )
        except (KeyError, TypeError, ValueError, TopologyError) as exc:
            raise ServeError(f"malformed serve config: {exc}") from exc

    @classmethod
    def parse_json(cls, text: str) -> "ServeConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"serve config is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class ServeReport:
    """Everything the daemon did, rendered deterministically.

    ``recovered`` records whether this process restarted from persisted
    state; it is deliberately excluded from :meth:`as_dict` and
    :meth:`render` so a recovered run's report is byte-identical to an
    uninterrupted run's — the crash-recovery invariant the smoke test
    asserts.
    """

    seed: int
    seq: int = 0
    #: journaled wire records ``{"seq": N, "command": {...}}``, in order.
    commands: List[dict] = field(default_factory=list)
    decisions: List[AdmissionDecision] = field(default_factory=list)
    phases: List[PhaseReport] = field(default_factory=list)
    recovered: bool = False

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
            "seq": self.seq,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "total_injected": self.total_injected,
            "total_delivered": self.total_delivered,
            "commands": list(self.commands),
            "decisions": [d.as_dict() for d in self.decisions],
            "phases": [
                {
                    "index": ph.index,
                    "label": ph.label,
                    "compliant": ph.compliant,
                    "chains": ph.chain_rows(),
                }
                for ph in self.phases
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        lines = [f"control-plane report (seed={self.seed}, seq={self.seq})"]
        if self.commands:
            lines.append("commands:")
            by_seq = {d.tick: d for d in self.decisions}
            for record in self.commands:
                seq = record["seq"]
                kind = record["command"].get("kind", "?")
                decision = by_seq.get(seq)
                if decision is not None:
                    lines.append(f"  s{seq} {decision.describe()}")
                else:
                    cmd = record["command"]
                    lines.append(
                        f"  s{seq} {kind} "
                        f"{cmd.get('action', '')}"
                        f"({cmd.get('target', cmd.get('chain', ''))}) "
                        f"-> applied"
                    )
        else:
            lines.append("commands: none")
        lines.extend(phase_table(self.phases))
        lines.append(
            f"totals: commands={len(self.commands)} "
            f"accepted={self.accepted} rejected={self.rejected} "
            f"injected={self.total_injected} "
            f"delivered={self.total_delivered}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# daemon
# ---------------------------------------------------------------------------


class ServeDaemon:
    """The rack-owner worker: one live rack, one serialized mutation
    stream, journaled and checkpointed for crash recovery."""

    def __init__(
        self,
        config: ServeConfig,
        state_dir: Union[str, Path],
        *,
        registry: Optional[MetricsRegistry] = None,
    ):
        config.validate()
        self.config = config
        self.state_dir = Path(state_dir)
        self.journal = Journal(self.state_dir / "journal.jsonl")
        self.checkpoints = CheckpointStore(self.state_dir / "checkpoint.pkl")
        #: the daemon owns its registry (it is checkpointed with the
        #: core, so after a recovery every counter and histogram count
        #: equals the uninterrupted run's, except the compile memos'
        #: hit/miss split — ``p4c.compile.lookups`` and
        #: ``metacompiler.codegen.units`` count this process's warmth —
        #: and the ``serve.checkpoint.*`` series of the checkpoints this
        #: run happened to write).
        self.registry = registry if registry is not None \
            else MetricsRegistry()

        self.core: Optional[AdmissionCore] = None
        self.seq = 0
        self.commands: List[dict] = []
        self.decisions: List[AdmissionDecision] = []
        self.phases: List[PhaseReport] = []
        #: the same append-only history as a checkpoint stores it: one
        #: pickle per phase of ``(record, decision, phase)``, made when
        #: the phase is appended, so a checkpoint writes history as
        #: bytes instead of re-pickling a list that only ever grows.
        self._history: List[bytes] = []
        #: packets injected over all of ``phases`` (the next phase's
        #: ``start_packet``), kept as a running total.
        self._injected = 0
        self.recovered = False
        self._replaying = False

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional["asyncio.Queue[_QueueItem]"] = None
        self._worker: Optional["asyncio.Task[None]"] = None
        self.shutdown_requested: Optional[asyncio.Event] = None

    # -- startup / recovery --------------------------------------------------

    def _persist_or_verify_config(self) -> None:
        path = self.state_dir / "config.json"
        if path.exists():
            stored = ServeConfig.parse_json(
                path.read_text(encoding="utf-8")
            )
            if stored != self.config:
                raise ServeError(
                    f"state dir {self.state_dir} was created with a "
                    "different configuration; replaying its journal "
                    "against this one would rebuild a different rack "
                    "(pass a fresh --state-dir or the original flags)"
                )
            return
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(self.config.to_json() + "\n", encoding="utf-8")

    def _bootstrap(self) -> None:
        """Day-0: cold solve + deploy of the configured chain set."""
        self.core = AdmissionCore(self.config, registry=self.registry)
        self.core.bootstrap()
        self._run_phase("initial")

    def _run_phase(
        self,
        label: str,
        record: Optional[dict] = None,
        decision: Optional[AdmissionDecision] = None,
    ) -> None:
        """Run one traffic phase and append it — with the command and
        decision that caused it, if any — to the report history."""
        phase = self.core.run_phase(
            label, self.config.packets_per_phase,
            index=len(self.phases), start_packet=self._injected,
        )
        self._remember(record, decision, phase)
        self._history.append(pickle.dumps(
            (record, decision, phase), protocol=pickle.HIGHEST_PROTOCOL
        ))

    def _remember(
        self,
        record: Optional[dict],
        decision: Optional[AdmissionDecision],
        phase: PhaseReport,
    ) -> None:
        """Append one history step (a fresh one, or a checkpoint's)."""
        if record is not None:
            self.commands.append(record)
        if decision is not None:
            self.decisions.append(decision)
        self._injected += sum(row.injected for row in phase.chains)
        self.phases.append(phase)

    def _recover_or_bootstrap(self) -> None:
        """Rebuild the state the journal describes: from this code's
        checkpoint plus the journal's suffix when there is one, else
        from a cold bootstrap plus the whole journal — in which case a
        checkpoint that had to be discarded is replaced."""
        self.recovered = self.checkpoints.path.exists() \
            or self.journal.path.exists()
        # before anything can be appended: a torn tail left in place
        # would swallow the next acknowledged command
        repaired = self.journal.repair()
        checkpoint, discarded = self.checkpoints.load()
        if checkpoint is not None:
            self.seq = int(checkpoint["seq"])
            self.core = checkpoint["core"]
            self._history = list(checkpoint["history"])
            for blob in self._history:
                self._remember(*pickle.loads(blob))
            self.registry = self.core.obs
        else:
            self._bootstrap()
        if repaired:
            self.registry.counter("serve.journal.repaired").inc()
        # replay the journal suffix through the deterministic core
        self._replaying = True
        try:
            for record in self.journal.replay(after=self.seq):
                command = parse_command(record["command"])
                outcome = self._apply_mutation(command)
                if outcome.seq != record["seq"] or outcome.status not in (
                    STATUS_APPLIED, STATUS_REJECTED,
                ):
                    raise ServeError(
                        f"journal replay diverged at seq {record['seq']}: "
                        f"got seq={outcome.seq} status={outcome.status} "
                        f"({outcome.error or 'no error'}) — state dir "
                        "does not match its configuration"
                    )
        finally:
            self._replaying = False
        if discarded is not None:
            warnings.warn(
                f"discarded {discarded} checkpoint {self.checkpoints.path}"
                f"; state rebuilt by replaying all {self.seq} journaled "
                "commands",
                RuntimeWarning, stacklevel=2,
            )
            self.registry.counter(
                "serve.checkpoint.discarded", reason=discarded
            ).inc()
            self.checkpoint()

    async def start(self) -> None:
        """Persist/verify config, recover or bootstrap, start the worker."""
        self._loop = asyncio.get_running_loop()
        # load the LP solver before the daemon announces itself, so no
        # command pays the import (the first binding LP otherwise would)
        import scipy.optimize  # noqa: F401
        self._persist_or_verify_config()
        self._recover_or_bootstrap()
        self._queue = asyncio.Queue()
        self.shutdown_requested = asyncio.Event()
        self._worker = asyncio.create_task(
            self._worker_loop(), name="rack-owner"
        )

    # -- the serialized mutation path ---------------------------------------

    async def submit(self, command: Command) -> CommandOutcome:
        """Enqueue one command for the rack-owner worker; await its
        typed outcome. Safe to call from any task; HTTP threads bridge
        here via ``asyncio.run_coroutine_threadsafe``."""
        if self._queue is None:
            raise ServeError("daemon is not started")
        future: "asyncio.Future[CommandOutcome]" = \
            self._loop.create_future()
        await self._queue.put((command, future))
        return await future

    async def _worker_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                break
            command, future = item
            try:
                outcome = self._handle(command)
            except ReproError as exc:
                outcome = CommandOutcome(
                    seq=self.seq, kind=getattr(command, "kind", "?"),
                    status=STATUS_INVALID, error=str(exc),
                    digest=self._digest(),
                )
            except Exception as exc:  # noqa: BLE001 — the daemon survives
                outcome = CommandOutcome(
                    seq=self.seq, kind=getattr(command, "kind", "?"),
                    status=STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    digest=self._digest(),
                )
            if not future.done():
                future.set_result(outcome)

    def _digest(self) -> str:
        return self.core.state_digest() if self.core is not None else ""

    def _handle(self, command: Command) -> CommandOutcome:
        try:
            command.validate()
        except CommandError as exc:
            return CommandOutcome(
                seq=self.seq, kind=command.kind, status=STATUS_INVALID,
                error=str(exc), digest=self._digest(),
            )
        if isinstance(command, Snapshot):
            return CommandOutcome(
                seq=self.seq, kind=command.kind, status=STATUS_APPLIED,
                digest=self._digest(), snapshot=self.state_snapshot(),
            )
        return self._apply_mutation(command)

    def _apply_mutation(self, command: Command) -> CommandOutcome:
        """Apply one mutating command: advance the core, run its traffic
        phase, journal, maybe checkpoint, acknowledge. Also the journal
        replay path (which skips the journal/checkpoint writes)."""
        seq = self.seq + 1
        decision: Optional[AdmissionDecision] = None
        if isinstance(command, InjectFault):
            try:
                self.core.apply_fault(
                    command.action, command.target, command.severity
                )
            except (FaultInjectionError, TopologyError) as exc:
                # dynamic validation failure: no state changed, no seq
                # consumed, nothing journaled
                return CommandOutcome(
                    seq=self.seq, kind=command.kind,
                    status=STATUS_INVALID, error=str(exc),
                    digest=self._digest(),
                )
            status = STATUS_APPLIED
        else:
            decision = self.core.process(command.to_event(at=seq))
            status = STATUS_APPLIED if decision.accepted \
                else STATUS_REJECTED
        # rejections consume a sequence number and are journaled too:
        # the rejection decision is part of the report the recovery
        # invariant reproduces.
        self.seq = seq
        record = {"seq": seq, "command": command.as_dict()}
        self._run_phase(f"s{seq}:{command.describe()}", record, decision)
        if not self._replaying:
            self.journal.append(seq, record["command"])
            every = self.config.checkpoint_every
            if every and seq % every == 0:
                self.checkpoint()
        return CommandOutcome(
            seq=seq, kind=command.kind, status=status,
            decision=decision, digest=self._digest(),
        )

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> None:
        """Pickle the full daemon state (core incl. racks + registry,
        report history as its ready-made blobs) atomically.

        The checkpoint is a cache of the journal, so a write that fails
        (a full disk, an I/O error) costs nothing but a longer replay:
        the previous checkpoint stays, one ``RuntimeWarning`` and
        ``serve.checkpoint.failed`` record it, and the command that
        triggered it stays applied.
        """
        try:
            with self.registry.timer("serve.checkpoint.seconds"):
                self.checkpoints.save({
                    "seq": self.seq,
                    "core": self.core,
                    "history": self._history,
                })
        except OSError as exc:
            warnings.warn(
                f"checkpoint at seq {self.seq} not written ({exc}); "
                f"{self.checkpoints.path} keeps the previous one",
                RuntimeWarning, stacklevel=2,
            )
            self.registry.counter("serve.checkpoint.failed").inc()
            return
        self.registry.gauge("serve.checkpoint.bytes").set(
            self.checkpoints.path.stat().st_size
        )

    # -- introspection -------------------------------------------------------

    def state_snapshot(self) -> dict:
        """A consistent, JSON-safe view of the control-plane state."""
        core = self.core
        return {
            "seq": self.seq,
            "digest": self._digest(),
            "recovered": self.recovered,
            "active": [
                {
                    "chain": c.name,
                    "t_min_mbps": c.slo.t_min,
                    "t_max_mbps": (
                        c.slo.t_max
                        if c.slo.t_max != float("inf") else None
                    ),
                }
                for c in core.active
            ],
            "rates": {
                name: round(rate, 6)
                for name, rate in sorted(core.rates.items())
            },
            "placement": (
                core.placement.describe() if core.placement else ""
            ),
            "faults": core.faults.view(),
            "commands": len(self.commands),
            "phases": len(self.phases),
        }

    def report(self) -> ServeReport:
        return ServeReport(
            seed=self.config.seed,
            seq=self.seq,
            commands=list(self.commands),
            decisions=list(self.decisions),
            phases=list(self.phases),
            recovered=self.recovered,
        )

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (the HTTP front-end calls this
        via ``loop.call_soon_threadsafe``)."""
        if self.shutdown_requested is not None:
            self.shutdown_requested.set()

    # -- shutdown ------------------------------------------------------------

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Drain pending commands, stop the worker, final checkpoint."""
        if self._queue is None:
            return
        await self._queue.put(None)
        await self._worker
        self._queue = None
        self._worker = None
        if checkpoint and self.core is not None:
            self.checkpoint()


__all__ = ["ServeConfig", "ServeDaemon", "ServeReport"]
