"""Partial failures around durability: a full disk at checkpoint time,
a journal corrupted in the middle, a command that arrives while the
daemon is still recovering."""

import asyncio
import errno
import pickle
import socket
import threading
import urllib.request

import pytest

import repro.serve.journal as journal_module
from repro.exceptions import ServeError
from repro.serve import (
    Arrive,
    Depart,
    InjectFault,
    Scale,
    ServeDaemon,
    Snapshot,
    run_server,
)

COMMANDS = [
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0, t_max_mbps=4000.0),
    Scale(chain="enterprise", t_min_mbps=1500.0),
    InjectFault(action="degrade_link", target="server0", severity=0.4),
    Depart(chain="dyn0"),
    InjectFault(action="restore_link", target="server0"),
]


class _FullDisk:
    """Stands in for ``pickle`` inside the journal module: every
    checkpoint write fails with ENOSPC after a few bytes hit the file."""

    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
    load = staticmethod(pickle.load)

    @staticmethod
    def dump(obj, fh, protocol=None):
        fh.write(b"partial")
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_checkpoint_write_leaves_the_command_applied(
        make_config, drive, tmp_path, monkeypatch):
    config = make_config(checkpoint_every=2)
    reference, _ = drive(config, tmp_path / "reference", COMMANDS)
    state = tmp_path / "state"

    async def _run():
        daemon = ServeDaemon(config, state)
        await daemon.start()
        head = [await daemon.submit(c) for c in COMMANDS[:3]]
        # seq 2 checkpointed; the disk fills before seq 4's checkpoint
        monkeypatch.setattr(journal_module, "pickle", _FullDisk)
        with pytest.warns(RuntimeWarning, match="checkpoint at seq 4"):
            fourth = await daemon.submit(COMMANDS[3])
        daemon._worker.cancel()  # SIGKILL analogue
        return daemon, head + [fourth]

    daemon, outcomes = asyncio.run(_run())
    monkeypatch.undo()
    assert [o.status for o in outcomes] == ["applied"] * 4
    assert daemon.journal.head_seq() == 4
    assert daemon.registry.counter_value("serve.checkpoint.failed") == 1
    assert not (state / "checkpoint.pkl.tmp").exists()
    kept, discarded = daemon.checkpoints.load()
    assert discarded is None and kept["seq"] == 2

    # restart: the seq-2 checkpoint plus the journal suffix rebuild the
    # rack, and the fifth command finishes an identical report
    recovered, _ = drive(config, state, COMMANDS[4:])
    assert recovered.recovered
    assert recovered.report().to_json() == reference.report().to_json()


def test_a_failed_final_checkpoint_does_not_abort_stop(
        make_config, tmp_path, monkeypatch):
    async def _run():
        daemon = ServeDaemon(make_config(checkpoint_every=0),
                             tmp_path / "state")
        await daemon.start()
        await daemon.submit(COMMANDS[0])
        monkeypatch.setattr(journal_module, "pickle", _FullDisk)
        with pytest.warns(RuntimeWarning, match="not written"):
            await daemon.stop()
        return daemon

    daemon = asyncio.run(_run())
    assert daemon.registry.counter_value("serve.checkpoint.failed") == 1
    assert not daemon.checkpoints.path.exists()
    assert not (tmp_path / "state" / "checkpoint.pkl.tmp").exists()


# -- a journal corrupted in the middle --------------------------------------


def _flip_byte(lines):
    lines[2] = bytes([lines[2][0] ^ 0x01]) + lines[2][1:]
    return lines


def _drop_line(lines):
    del lines[2]
    return lines


def _duplicate_seq(lines):
    lines.insert(3, lines[2])
    return lines


@pytest.mark.parametrize("checkpoint_every", [2, 0],
                         ids=["checkpointed", "journal-only"])
@pytest.mark.parametrize("corrupt, record", [
    (_flip_byte, "record 3 is malformed"),
    (_drop_line, "out of sequence at record 3: expected seq 3, got 4"),
    (_duplicate_seq, "out of sequence at record 4: expected seq 4, got 3"),
], ids=["flipped-byte", "dropped-line", "duplicated-seq"])
def test_mid_journal_corruption_is_refused_and_left_as_found(
        make_config, drive, tmp_path, checkpoint_every, corrupt, record):
    """The checkpoint (seq 4) already covers the damaged record; the
    restart still reads the whole journal, refuses it naming the record,
    and writes neither file."""
    config = make_config(checkpoint_every=checkpoint_every)
    state = tmp_path / "state"
    drive(config, state, COMMANDS, crash=True)
    journal = state / "journal.jsonl"
    lines = journal.read_bytes().split(b"\n")[:-1]
    journal.write_bytes(b"\n".join(corrupt(lines)) + b"\n")
    checkpoint = state / "checkpoint.pkl"
    before = (journal.read_bytes(),
              checkpoint.read_bytes() if checkpoint.exists() else None)

    daemon = ServeDaemon(config, state)
    with pytest.raises(ServeError, match=record):
        asyncio.run(daemon.start())
    assert (journal.read_bytes(),
            checkpoint.read_bytes() if checkpoint.exists() else None) \
        == before


def test_a_flipped_final_newline_reads_as_a_torn_tail(
        make_config, drive, tmp_path):
    """The documented degraded mode: with no per-record checksum, a
    last record whose newline flipped is indistinguishable from a torn
    write, so recovery cuts it off and resumes one command earlier."""
    config = make_config(checkpoint_every=0)
    state = tmp_path / "state"
    drive(config, state, COMMANDS, crash=True)
    journal = state / "journal.jsonl"
    data = journal.read_bytes()
    journal.write_bytes(data[:-1] + b" ")

    recovered, _ = drive(config, state, [])
    assert recovered.seq == len(COMMANDS) - 1
    assert recovered.registry.counter_value("serve.journal.repaired") == 1


# -- a command during recovery ----------------------------------------------


def test_a_command_during_recovery_is_refused_not_queued(
        make_config, tmp_path, monkeypatch):
    """In process, ``submit`` raises until ``start()`` has recovered;
    over HTTP, nothing listens until then, so a client is refused."""
    config = make_config()
    state = tmp_path / "state"
    with pytest.raises(ServeError, match="daemon is not started"):
        asyncio.run(ServeDaemon(config, state).submit(Snapshot()))

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    seen = {}
    recover = ServeDaemon._recover_or_bootstrap

    def recovering(daemon):
        submit = daemon.submit(Snapshot())
        with pytest.raises(ServeError, match="daemon is not started"):
            submit.send(None)
        try:
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
            seen["connect"] = "accepted"
        except ConnectionRefusedError:
            seen["connect"] = "refused"
        recover(daemon)

    monkeypatch.setattr(ServeDaemon, "_recover_or_bootstrap", recovering)
    ready = threading.Event()
    thread = threading.Thread(target=run_server, kwargs=dict(
        config=config, state_dir=state, port=port,
        ready=lambda url: ready.set(),
    ))
    thread.start()
    try:
        assert ready.wait(120), "daemon never became ready"
    finally:
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/shutdown", data=b"{}",
            headers={"Content-Type": "application/json"},
        )
        urllib.request.urlopen(request, timeout=60).close()
        thread.join(timeout=120)
    assert seen == {"connect": "refused"}
