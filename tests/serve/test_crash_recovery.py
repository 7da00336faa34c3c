"""Crash recovery: checkpoint + journal replay rebuild a byte-identical rack.

The acceptance invariant for the control-plane daemon: kill it at an
arbitrary applied-command boundary, restart it on the same state dir,
finish the remaining commands — and the final report must be
byte-identical to an uninterrupted run's, because recovery replays the
acknowledged command prefix through the same deterministic core.
"""

import pytest

from repro.hw.spec import topology_for
from repro.serve import Arrive, Depart, InjectFault, Scale, ServeConfig

COMMANDS = [
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0, t_max_mbps=4000.0),
    Scale(chain="enterprise", t_min_mbps=1500.0),
    InjectFault(action="degrade_link", target="server0", severity=0.4),
    Depart(chain="dyn0"),
    InjectFault(action="restore_link", target="server0"),
]


@pytest.mark.parametrize("checkpoint_every", [2, 0],
                         ids=["checkpointed", "journal-only"])
@pytest.mark.parametrize("kill_after", [1, 3, 5])
def test_recovered_report_is_byte_identical(make_config, drive, tmp_path,
                                            checkpoint_every, kill_after):
    config = make_config(checkpoint_every=checkpoint_every)

    # the uninterrupted reference run
    ref_daemon, ref_outcomes = drive(
        config, tmp_path / "reference", COMMANDS
    )
    reference = ref_daemon.report()

    # the crashed run: SIGKILL analogue after `kill_after` acked commands
    crashed, partial = drive(
        config, tmp_path / "crashed", COMMANDS[:kill_after], crash=True
    )

    # restart on the same state dir: checkpoint load + journal replay
    recovered, remaining = drive(
        config, tmp_path / "crashed", COMMANDS[kill_after:]
    )
    assert recovered.recovered is True

    # the recovered daemon resumed at the right sequence with the same
    # state digest the reference run had at that boundary
    assert remaining[0].seq == kill_after + 1 if remaining else True
    for ref, got in zip(ref_outcomes[kill_after:], remaining):
        assert got.seq == ref.seq
        assert got.status == ref.status
        assert got.digest == ref.digest

    report = recovered.report()
    assert report.recovered is True
    # `recovered` is excluded from the serialized report: byte-identical
    assert report.to_json() == reference.to_json()
    assert report.render() == reference.render()
    # the injected-packet running total was rebuilt, not restarted: every
    # phase (the first post-recovery one included) starts where the
    # uninterrupted run's did
    assert [ph.start_packet for ph in report.phases] == \
        [ph.start_packet for ph in reference.phases]
    assert report.phases[-1].start_packet == sum(
        row.injected for ph in report.phases[:-1] for row in ph.chains
    )


#: series a recovered registry may hold differently from an uninterrupted
#: run's: the process-wide compile memos' warmth (they are not
#: checkpointed) and the checkpoints a run happened to write
_WARMTH_COUNTERS = {"p4c.compile.lookups", "metacompiler.codegen.units"}
_CHECKPOINT_HISTOGRAMS = {"serve.checkpoint.seconds"}


def _series(instruments, value, skip):
    return {
        (i.name, tuple(sorted(dict(i.labels).items()))): value(i)
        for i in instruments if i.name not in skip
    }


@pytest.mark.parametrize("checkpoint_every", [2, 0],
                         ids=["checkpointed", "journal-only"])
@pytest.mark.parametrize("kill_after", [1, 3, 5])
def test_recovered_registry_matches_but_for_memo_warmth(
        make_config, drive, tmp_path, checkpoint_every, kill_after):
    """The registry rides in the checkpoint, so after a kill and a
    recovery every counter and every histogram's count equals the
    uninterrupted run's — except the compile memos' hit/miss split and
    the checkpoint timer, which count what this process did."""
    config = make_config(checkpoint_every=checkpoint_every)
    reference, _ = drive(config, tmp_path / "reference", COMMANDS)
    drive(config, tmp_path / "crashed", COMMANDS[:kill_after], crash=True)
    recovered, _ = drive(config, tmp_path / "crashed", COMMANDS[kill_after:])

    def counters(daemon):
        return _series(daemon.registry.counters(), lambda c: c.value,
                       _WARMTH_COUNTERS)

    def histogram_counts(daemon):
        return _series(daemon.registry.histograms(), lambda h: h.count,
                       _CHECKPOINT_HISTOGRAMS)

    assert counters(recovered) == counters(reference)
    assert histogram_counts(recovered) == histogram_counts(reference)
    assert counters(reference)  # the comparison is not vacuous


def test_recovery_is_invisible_midstream(make_config, drive, tmp_path):
    """Commands after recovery decide exactly as without the crash —
    including a rejection, which must replay as a rejection."""
    config = make_config()
    commands = [
        Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
               t_min_mbps=500.0),
        Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
               t_min_mbps=500.0),  # duplicate: rejected, still journaled
        Scale(chain="dyn0", t_min_mbps=700.0),
    ]
    ref_daemon, _ = drive(config, tmp_path / "reference", commands)
    drive(config, tmp_path / "crashed", commands[:2], crash=True)
    recovered, _ = drive(config, tmp_path / "crashed", commands[2:])
    assert recovered.report().to_json() == ref_daemon.report().to_json()
    # the replayed rejection is part of the recovered report
    assert recovered.report().rejected == 1


@pytest.mark.parametrize("checkpoint_every", [2, 0],
                         ids=["checkpointed", "journal-only"])
def test_torn_journal_tail_costs_no_acknowledged_command(
        make_config, drive, tmp_path, checkpoint_every):
    """A kill mid-append leaves a partial last line. The restart must cut
    it off before it journals anything: appended to, it swallows the
    next acknowledged command (gone after one more restart) and then
    makes the state dir unreadable."""
    config = make_config(checkpoint_every=checkpoint_every)
    reference, ref_outcomes = drive(config, tmp_path / "reference", COMMANDS)

    state = tmp_path / "crashed"
    drive(config, state, COMMANDS[:2], crash=True)
    with open(state / "journal.jsonl", "a") as fh:
        fh.write('{"command": {"action": "degrade_link", "kind": "fa')
    repaired, middle = drive(config, state, COMMANDS[2:4], crash=True)
    assert repaired.registry.counter_value("serve.journal.repaired") == 1
    assert [o.seq for o in middle] == [3, 4]
    recovered, last = drive(config, state, COMMANDS[4:])

    for ref, got in zip(ref_outcomes[2:], middle + last):
        assert (got.seq, got.status, got.digest) == \
            (ref.seq, ref.status, ref.digest)
    assert recovered.seq == reference.seq == len(COMMANDS)
    assert recovered.core.state_digest() == reference.core.state_digest()
    assert recovered.report().to_json() == reference.report().to_json()
    assert recovered.report().render() == reference.report().render()


#: asks for more than the rack's line rate: the solver (not a static
#: check) rejects it
OVERSIZE = Arrive(chain="dyn1", spec="chain dyn1: ACL -> IPv4Fwd",
                  t_min_mbps=150000.0, t_max_mbps=200000.0)


@pytest.mark.parametrize("checkpoint_every", [2, 0],
                         ids=["checkpointed", "journal-only"])
def test_retried_rejection_rejects_again_across_a_kill(
        make_config, drive, tmp_path, checkpoint_every):
    """A rejected arrive retried verbatim re-asks a solved problem.
    Nothing remembers the answer: the retry is solved again and rejected
    for the same reason, whether or not a kill sat in between."""
    config = make_config(checkpoint_every=checkpoint_every)
    commands = [COMMANDS[0], OVERSIZE, OVERSIZE, COMMANDS[1]]

    reference, ref_outcomes = drive(config, tmp_path / "reference", commands)
    drive(config, tmp_path / "crashed", commands[:2], crash=True)
    has_checkpoint = (tmp_path / "crashed" / "checkpoint.pkl").exists()
    assert has_checkpoint == bool(checkpoint_every)
    recovered, remaining = drive(config, tmp_path / "crashed", commands[2:])

    first, retry = ref_outcomes[1].decision, ref_outcomes[2].decision
    assert not first.accepted and not retry.accepted
    assert retry.reason == first.reason
    assert remaining[0].decision.as_dict() == retry.as_dict()
    assert [(o.seq, o.status, o.digest) for o in remaining] \
        == [(o.seq, o.status, o.digest) for o in ref_outcomes[2:]]
    assert recovered.report().to_json() == reference.report().to_json()
    assert recovered.core.state_digest() == reference.core.state_digest()


def test_fresh_state_dir_is_not_recovered(config, drive, tmp_path):
    daemon, _ = drive(config, tmp_path / "state", [])
    assert daemon.recovered is False


# -- multi-rack fabric ------------------------------------------------------

FABRIC_SPEC = "\n".join(
    f"chain c{i}: ACL(rules=64) -> Encrypt -> IPv4Fwd" for i in range(6)
)
FABRIC_COMMANDS = [
    Arrive(chain="c6", spec="chain c6: ACL(rules=64) -> Encrypt -> IPv4Fwd",
           t_min_mbps=4000.0, t_max_mbps=9000.0, d_max_us=400.0),
    Scale(chain="c0", t_min_mbps=6000.0, t_max_mbps=9000.0),
    Depart(chain="c6"),
]


def _fabric_config(make_config):
    return make_config(
        spec_text=FABRIC_SPEC,
        slos=tuple((4000.0, 9000.0, 400.0) for _ in range(6)),
        topology=topology_for("two-rack"),
    )


def test_topology_spec_survives_the_config_round_trip(make_config):
    """The persistence contract: a fabric config rebuilds byte-identical
    from its own config.json payload."""
    config = _fabric_config(make_config)
    assert config.topology is not None
    assert ServeConfig.parse_json(config.to_json()) == config


def test_persisted_config_carries_the_topology(make_config, drive, tmp_path):
    import json

    config = _fabric_config(make_config)
    drive(config, tmp_path / "state", [])
    payload = json.loads((tmp_path / "state" / "config.json").read_text())
    assert payload["topology"] == config.topology.as_dict()


@pytest.mark.parametrize("kill_after", [1, 2])
def test_fabric_recovery_is_byte_identical(make_config, drive, tmp_path,
                                           kill_after):
    """Crash recovery over a two-rack fabric: the recovered daemon holds
    the same chain→rack assignment and rack digests as an uninterrupted
    run (the fabric core's whole state feeds the digest)."""
    config = _fabric_config(make_config)

    reference, ref_outcomes = drive(
        config, tmp_path / "reference", FABRIC_COMMANDS
    )
    drive(config, tmp_path / "crashed", FABRIC_COMMANDS[:kill_after],
          crash=True)
    recovered, remaining = drive(
        config, tmp_path / "crashed", FABRIC_COMMANDS[kill_after:]
    )
    assert recovered.recovered is True
    for ref, got in zip(ref_outcomes[kill_after:], remaining):
        assert got.seq == ref.seq
        assert got.status == ref.status
        assert got.digest == ref.digest
    assert recovered.core.state_digest() == reference.core.state_digest()
    assert recovered.report().to_json() == reference.report().to_json()


# -- the dataplane loop is invisible to recovery ------------------------------


def test_recovery_is_loop_invariant(make_config, drive, tmp_path, pin_loop):
    """At a batch size the columnar loop takes, a SIGKILL→recover cycle —
    from the checkpoint and from the journal alone — ends in the digests
    and report of the uninterrupted run, and all of it is the same with
    the loop selection pinned either way. (The engine's fallback history
    is not checkpointed: a recovered daemon re-learns it in one batch.)"""
    from repro.sim.traffic import COLUMNAR_MIN_BATCH

    seen = {}
    for loop in ("scalar", "columnar"):
        pin_loop(loop)
        for label, checkpoint_every in (("checkpointed", 2), ("journal", 0)):
            config = make_config(
                batch_size=COLUMNAR_MIN_BATCH,
                packets_per_phase=2 * COLUMNAR_MIN_BATCH + 3,
                checkpoint_every=checkpoint_every,
            )
            state = tmp_path / f"{loop}-{label}"
            reference, ref_outcomes = drive(config, state / "ref", COMMANDS)
            drive(config, state / "crashed", COMMANDS[:3], crash=True)
            recovered, remaining = drive(
                config, state / "crashed", COMMANDS[3:]
            )
            assert recovered.recovered is True
            assert [o.digest for o in remaining] == \
                [o.digest for o in ref_outcomes[3:]]
            assert recovered.report().to_json() == reference.report().to_json()
            seen[loop, label] = (
                [o.digest for o in ref_outcomes],
                recovered.core.state_digest(),
                recovered.report().to_json(),
            )
            batches = reference.core.obs.counter_value(
                "traffic.batches", loop="columnar"
            )
            assert bool(batches) == (loop == "columnar")
    assert len({repr(value) for value in seen.values()}) == 1
