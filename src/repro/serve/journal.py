"""Durability for the control-plane daemon: journal + checkpoints.

The daemon's persistence model is write-ahead-of-ack, not
write-ahead-of-apply: a mutating command is applied to the in-memory
:class:`~repro.sim.admission.AdmissionCore` first, then appended to the
journal and fsync'd, and only then acknowledged to the client. The
invariant a tenant can rely on is therefore *acknowledged ⇒ journaled ⇒
recovered*: a crash can lose at most commands that were still in flight
(never acknowledged), and recovery replays exactly the acknowledged
prefix. Because the core is deterministic given (config, command
sequence), replaying that prefix reconstructs a byte-identical rack.

* :class:`Journal` — append-only JSONL, one record per applied mutating
  command: ``{"seq": N, "command": {...}}`` with sorted keys. Records
  are strictly sequenced; a gap or out-of-order seq on read means the
  file was tampered with or torn, and recovery fails loudly rather than
  silently skipping. A trailing partial line (torn write during a crash:
  bytes after the last newline) is ignored by readers — it can only
  belong to an unacknowledged command — and cut off by
  :meth:`Journal.repair` before a recovered daemon appends again.
* :class:`CheckpointStore` — a *cache* of that replay, never a second
  source of truth: periodic pickles of the full daemon state (seq,
  admission core incl. the deployed rack and metrics registry, and the
  report history as one ready-made pickle per command), written
  atomically (tmp + rename + dir fsync) so a crash mid-checkpoint
  leaves the previous checkpoint intact, and stamped with
  :func:`code_stamp` — a digest of the ``repro`` sources that wrote it.
  The same code restarts by loading the checkpoint and
  replaying only journal records with ``seq > checkpoint.seq``; a
  checkpoint that does not unpickle, or that other code wrote, is
  discarded and the daemon replays the whole journal instead. So no
  class ever has to read an older pickled shape of itself: changing the
  code under a state dir costs one full replay.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import ServeError


class Journal:
    """Append-only, fsync'd JSONL command log."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def append(self, seq: int, command: dict) -> None:
        """Durably append one applied command (fsync before return)."""
        record = json.dumps(
            {"seq": seq, "command": command}, sort_keys=True
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(record + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def records(self, after: int = 0) -> Iterator[dict]:
        """Yield journal records with ``seq > after``, in order.

        A record is a newline-terminated line. Raises
        :class:`~repro.exceptions.ServeError` on malformed or
        out-of-sequence records; bytes after the last newline are a torn
        tail (the signature of a crash mid-append) and are ignored —
        they belong to a command that was never acknowledged, so
        dropping them preserves the acked ⇒ recovered invariant.
        """
        if not self.path.exists():
            return
        complete, newline, _torn = self.path.read_bytes().rpartition(b"\n")
        lines = complete.split(b"\n") if newline else []
        expected = None
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                seq = int(record["seq"])
                command = record["command"]
                if not isinstance(command, dict):
                    raise ValueError("command is not an object")
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                raise ServeError(
                    f"journal {self.path} record {index + 1} is "
                    f"malformed: {exc}"
                ) from exc
            if expected is not None and seq != expected:
                raise ServeError(
                    f"journal {self.path} is out of sequence at record "
                    f"{index + 1}: expected seq {expected}, got {seq}"
                )
            expected = seq + 1
            if seq > after:
                yield record

    def repair(self) -> bool:
        """Cut a torn tail off the file; return whether there was one.

        :meth:`records` only ignores the tail. Left in place, the next
        :meth:`append` would land on the same line, and that merged line
        — an *acknowledged* command — would be what the restart after
        drops, then what every later restart calls malformed. Recovery
        therefore repairs before it appends anything.
        """
        if not self.path.exists():
            return False
        with open(self.path, "r+b") as fh:
            data = fh.read()
            keep = data.rfind(b"\n") + 1
            if keep == len(data):
                return False
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        return True

    def replay(self, after: int = 0) -> List[dict]:
        return list(self.records(after=after))

    def head_seq(self) -> int:
        """The last journaled sequence number (0 for an empty journal)."""
        seq = 0
        for record in self.records():
            seq = int(record["seq"])
        return seq


@functools.lru_cache(maxsize=None)
def code_stamp() -> str:
    """sha256 over the ``repro`` package's source files (relative path +
    bytes, sorted), computed once per process: which code a checkpoint's
    pickled objects belong to."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class CheckpointStore:
    """Atomic, code-stamped pickle checkpoints of the daemon's full state.

    On disk: the writer's :func:`code_stamp`, then the state, as two
    consecutive pickles — a checkpoint other code wrote is recognised by
    its header and its state is never unpickled.
    """

    def __init__(self, path: Path):
        self.path = Path(path)

    def save(self, state: dict) -> None:
        """Write the checkpoint atomically: a crash mid-save leaves the
        previous checkpoint readable, and a failed write (``OSError``,
        re-raised) leaves no temporary file behind."""
        if "seq" not in state:
            raise ServeError("checkpoint state must carry 'seq'")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(code_stamp(), fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # a partial file is no checkpoint: leave only the old one
            tmp.unlink(missing_ok=True)
            raise
        # persist the rename itself
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def load(self) -> Tuple[Optional[dict], Optional[str]]:
        """``(state, None)`` for a checkpoint this code wrote, ``(None,
        None)`` if none was ever written, else ``(None, reason)`` for one
        to discard: ``"unreadable"`` (it does not unpickle) or
        ``"foreign"`` (it is not stamped by this code)."""
        if not self.path.exists():
            return None, None
        try:
            with open(self.path, "rb") as fh:
                if pickle.load(fh) != code_stamp():
                    return None, "foreign"
                state = pickle.load(fh)
        except Exception:  # noqa: BLE001 — unpickling bytes this code did
            # not write can raise anything (ModuleNotFoundError for a
            # class the tree no longer has, MemoryError, ...)
            return None, "unreadable"
        return state, None


__all__ = ["CheckpointStore", "Journal", "code_stamp"]
