"""The journal is the only truth; a checkpoint is a disposable cache.

A daemon uses ``checkpoint.pkl`` only when it unpickles cleanly *and*
carries this process's :func:`~repro.serve.journal.code_stamp`. Anything
else — torn, garbage, written by other code — is discarded, the whole
journal replayed from a cold bootstrap, and a fresh checkpoint written.
The matrix below puts every such form under a crashed state dir, single
rack and fabric, and demands the uninterrupted run's report and digest.
"""

import os
import pickle
import pickletools
import random
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.hw.spec import topology_for
from repro.serve import Arrive, Depart, InjectFault, Scale
from repro.serve.journal import CheckpointStore, code_stamp

RACK_COMMANDS = [
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0, t_max_mbps=4000.0),
    Scale(chain="enterprise", t_min_mbps=1500.0),
    InjectFault(action="degrade_link", target="server0", severity=0.4),
    Depart(chain="dyn0"),
]
FABRIC_SPEC = "\n".join(
    f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(6)
)
FABRIC_COMMANDS = [
    Arrive(chain="c6", spec="chain c6: ACL(rules=64) -> Encrypt -> IPv4Fwd",
           t_min_mbps=4000.0, t_max_mbps=9000.0, d_max_us=400.0),
    Scale(chain="c0", t_min_mbps=6000.0, t_max_mbps=9000.0),
    Depart(chain="c6"),
    Scale(chain="c1", t_min_mbps=5000.0, t_max_mbps=9000.0),
]
#: checkpoints land every 2 commands, so a kill after 3 leaves a
#: checkpoint at seq 2 and one journaled command past it
KILL_AFTER = 3


def _split(native: bytes):
    """A native checkpoint's (stamp, pickled state bytes)."""
    stamp = pickle.loads(native)
    return stamp, native[len(pickle.dumps(stamp, pickle.HIGHEST_PROTOCOL)):]


#: form -> (bytes to put in checkpoint.pkl given the native ones, the
#: discard reason the daemon must count)
FORMS = {
    "empty": (lambda native: b"", "unreadable"),
    "truncated": (lambda native: native[:len(native) // 2], "unreadable"),
    "random-bytes": (
        lambda native: random.Random(7).randbytes(4096), "unreadable"),
    "non-dict": (
        lambda native: pickle.dumps(["not", "a", "checkpoint"]), "foreign"),
    # what daemons wrote before checkpoints were stamped: the bare state
    "unstamped-dict": (lambda native: _split(native)[1], "foreign"),
    "other-stamp": (
        lambda native: pickle.dumps("0" * 64) + _split(native)[1],
        "foreign"),
    # a class from a module this tree deleted (ModuleNotFoundError)
    "deleted-module": (
        lambda native:
            b"\x80\x02crepro.runtime.rackcache\n_Session\n)\x81.",
        "unreadable"),
}


@pytest.fixture(scope="module")
def scenarios(tmp_path_factory, make_config, drive):
    """Per topology: the uninterrupted reference daemon and a state dir
    crashed after a checkpoint, built once and copied per case."""
    root = tmp_path_factory.mktemp("checkpoint-cache")
    built = {}
    for name, config, commands in (
        ("rack", make_config(), RACK_COMMANDS),
        ("two-rack", make_config(
            spec_text=FABRIC_SPEC,
            slos=tuple((4000.0, 9000.0, 400.0) for _ in range(6)),
            topology=topology_for("two-rack"),
        ), FABRIC_COMMANDS),
    ):
        reference, outcomes = drive(config, root / name / "ref", commands)
        crashed = root / name / "crashed"
        drive(config, crashed, commands[:KILL_AFTER], crash=True)
        assert CheckpointStore(crashed / "checkpoint.pkl").load()[0]["seq"] \
            == KILL_AFTER - 1
        built[name] = (config, commands, reference, outcomes, crashed)
    return built


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("topology", ["rack", "two-rack"])
def test_unusable_checkpoint_is_rebuilt_from_the_journal(
        scenarios, drive, tmp_path, topology, form):
    config, commands, reference, ref_outcomes, crashed = scenarios[topology]
    corrupt, reason = FORMS[form]
    state = tmp_path / "state"
    shutil.copytree(crashed, state)
    store = CheckpointStore(state / "checkpoint.pkl")
    store.path.write_bytes(corrupt(store.path.read_bytes()))
    assert store.load() == (None, reason)

    with pytest.warns(RuntimeWarning,
                      match=f"discarded {reason} checkpoint"):
        rebuilt, remaining = drive(config, state, commands[KILL_AFTER:])

    assert rebuilt.recovered is True
    for other in ("unreadable", "foreign"):
        assert rebuilt.registry.counter_value(
            "serve.checkpoint.discarded", reason=other
        ) == (1 if other == reason else 0)
    for ref, got in zip(ref_outcomes[KILL_AFTER:], remaining):
        assert (got.seq, got.status, got.digest) == \
            (ref.seq, ref.status, ref.digest)
    assert rebuilt.report().to_json() == reference.report().to_json()
    assert rebuilt.report().render() == reference.report().render()
    assert rebuilt.core.state_digest() == reference.core.state_digest()
    native, discarded = store.load()
    assert discarded is None and native["seq"] == len(commands)


def test_history_rides_in_the_checkpoint_as_one_blob_per_phase(
        make_config, drive, tmp_path):
    """``commands``/``decisions``/``phases`` only ever grow, so each
    step is pickled once, when appended, and every checkpoint writes the
    blobs; a recovered daemon's history is the pre-kill one, object for
    object (``decision.seconds`` included: unpickled, not replayed)."""
    state = tmp_path / "state"
    crashed, _ = drive(make_config(), state, RACK_COMMANDS, crash=True)

    on_disk, discarded = CheckpointStore(state / "checkpoint.pkl").load()
    assert discarded is None and set(on_disk) == {"seq", "core", "history"}
    assert on_disk["seq"] == len(RACK_COMMANDS)  # a checkpoint boundary
    blobs = on_disk["history"]
    assert len(blobs) == len(crashed.phases) == len(RACK_COMMANDS) + 1
    assert all(type(blob) is bytes for blob in blobs)
    record, decision, phase = pickle.loads(blobs[0])
    assert record is None and decision is None and phase.label == "initial"

    recovered, _ = drive(make_config(), state, [])
    assert recovered.commands == crashed.commands
    assert recovered.decisions == crashed.decisions
    assert recovered.phases == crashed.phases
    assert recovered._history == blobs
    assert recovered.report().to_json() == crashed.report().to_json()
    assert recovered.report().render() == crashed.report().render()
    assert recovered.phases[-1].start_packet + sum(
        row.injected for row in recovered.phases[-1].chains
    ) == recovered._injected == crashed._injected


def test_checkpoint_carries_no_placement_memo(make_config, drive, tmp_path):
    """The placement memo is the sweep engine's: nothing of
    ``repro.core.cache`` rides in a daemon's checkpoint, however many
    commands it has solved."""
    commands = []
    for i in range(10):
        commands += [
            Arrive(chain=f"dyn{i}", spec=f"chain dyn{i}: ACL -> IPv4Fwd",
                   t_min_mbps=500.0, t_max_mbps=4000.0),
            Depart(chain=f"dyn{i}"),
        ]
    state = tmp_path / "state"
    daemon, _ = drive(make_config(), state, commands)
    assert daemon.seq == len(commands) >= 20
    seen = _pickled_strings(state / "checkpoint.pkl")
    assert "repro.sim.admission" in seen    # the walk does see globals
    assert not [name for name in seen if name.startswith("repro.core.cache")]


def test_checkpoint_carries_no_table_dag_index(make_config, drive, tmp_path):
    """A rack's compiled P4 program (``rack.artifacts.p4``) rides in the
    checkpoint with its table DAG, but not the DAG's name index: it is
    rebuilt on the first lookup after a load."""
    state = tmp_path / "state"
    drive(make_config(), state, RACK_COMMANDS)
    seen = _pickled_strings(state / "checkpoint.pkl")
    assert {"repro.p4c.ir", "TableDAG", "tables", "edges"} <= seen
    assert "_by_name" not in seen


def _pickled_strings(path):
    """Every string a checkpoint's pickles push, history blobs included:
    protocol 4+ pushes module and class names as plain strings ahead of
    STACK_GLOBAL, and attribute names as dict keys."""
    def strings(pickled: bytes):
        return {arg for _, arg, _ in pickletools.genops(pickled)
                if isinstance(arg, str)}

    _, state_bytes = _split(path.read_bytes())
    seen = strings(state_bytes)
    for blob in pickle.loads(state_bytes)["history"]:
        seen |= strings(blob)
    return seen


def test_discard_writes_a_native_checkpoint_before_serving(
        scenarios, drive, tmp_path):
    """The rebuild is paid once: the restart that discarded writes a
    checkpoint of what it replayed, and the next restart loads it."""
    config, commands, reference, _, crashed = scenarios["rack"]
    state = tmp_path / "state"
    shutil.copytree(crashed, state)
    store = CheckpointStore(state / "checkpoint.pkl")
    store.path.write_bytes(b"")
    with pytest.warns(RuntimeWarning, match="replaying all 3 journaled"):
        drive(config, state, [], crash=True)
    native, discarded = store.load()
    assert discarded is None and native["seq"] == KILL_AFTER

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed, _ = drive(config, state, commands[KILL_AFTER:])
    # the discard is part of the restored registry's history, not redone
    assert resumed.registry.counter_value(
        "serve.checkpoint.discarded", reason="unreadable") == 1
    assert resumed.report().to_json() == reference.report().to_json()


def test_stamp_follows_the_source_bytes(tmp_path):
    """Stable across fresh processes of one tree, equal for equal trees,
    different as soon as one source file's bytes change."""
    package = tmp_path / "tree" / "repro"
    shutil.copytree(Path(repro.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def stamp_in_a_fresh_process() -> str:
        done = subprocess.run(
            [sys.executable, "-c",
             "from repro.serve.journal import code_stamp; "
             "print(code_stamp())"],
            env={**os.environ, "PYTHONPATH": str(package.parent),
                 "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    first = stamp_in_a_fresh_process()
    assert len(first) == 64
    assert stamp_in_a_fresh_process() == first
    assert first == code_stamp()
    with open(package / "units.py", "a", encoding="utf-8") as fh:
        fh.write("# one more comment\n")
    assert stamp_in_a_fresh_process() != first
