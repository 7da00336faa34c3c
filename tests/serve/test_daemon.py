"""The rack-owner daemon: serialized mutations, journaling, reporting."""

import asyncio
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.exceptions import ServeError
from repro.serve import (
    Arrive,
    Depart,
    InjectFault,
    Journal,
    Scale,
    ServeConfig,
    ServeDaemon,
    Snapshot,
)
from repro.serve.commands import (
    STATUS_APPLIED,
    STATUS_ERROR,
    STATUS_INVALID,
    STATUS_REJECTED,
)

ARRIVE = Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
                t_min_mbps=500.0, t_max_mbps=4000.0)


class TestMutations:
    def test_day0_day2_flow(self, config, drive, tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            ARRIVE,
            Scale(chain="dyn0", t_min_mbps=800.0),
            InjectFault(action="degrade_link", target="server0",
                        severity=0.4),
            InjectFault(action="restore_link", target="server0"),
            Depart(chain="dyn0"),
        ])
        assert [o.status for o in outcomes] == [STATUS_APPLIED] * 5
        assert [o.seq for o in outcomes] == [1, 2, 3, 4, 5]
        # lifecycle commands carry the core's decision verbatim
        assert outcomes[0].decision.accepted
        assert outcomes[0].decision.chain == "dyn0"
        assert outcomes[2].decision is None  # fault probes have none
        report = daemon.report()
        assert report.seq == 5
        assert report.accepted == 3
        # one deterministic phase per applied command + the bootstrap one
        assert len(report.phases) == 6
        assert report.phases[0].label == "initial"
        assert report.phases[1].label == "s1:arrive(dyn0)"

    def test_rejection_consumes_seq_and_is_journaled(self, config, drive,
                                                     tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            ARRIVE,
            ARRIVE,  # duplicate name: admission refuses it
        ])
        assert outcomes[0].status == STATUS_APPLIED
        assert outcomes[1].status == STATUS_REJECTED
        assert outcomes[1].seq == 2
        assert not outcomes[1].decision.accepted
        journal = Journal(tmp_path / "state" / "journal.jsonl")
        assert [r["seq"] for r in journal.replay()] == [1, 2]

    def test_invalid_fault_target_consumes_no_seq(self, config, drive,
                                                  tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            InjectFault(action="fail", target="no-such-device"),
        ])
        assert outcomes[0].status == STATUS_INVALID
        assert outcomes[0].seq == 0
        assert not (tmp_path / "state" / "journal.jsonl").exists()

    def test_non_finite_fault_severity_is_invalid(self, config, drive,
                                                  tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            InjectFault(action="fail", target="server0",
                        severity=float("nan")),
            InjectFault(action="lose_cores", target="server0",
                        severity=float("inf")),
        ])
        assert [o.status for o in outcomes] == [STATUS_INVALID] * 2
        assert daemon.seq == 0

    def test_core_loss_drops_the_shortfall_until_restored(
            self, config, drive, tmp_path):
        """``lose_cores`` under the running placement drops what the
        surviving cores cannot carry; ``restore_cores`` ends it."""
        daemon, outcomes = drive(config, tmp_path / "state", [
            InjectFault(action="lose_cores", target="server0",
                        severity=64.0),
            InjectFault(action="restore_cores", target="server0"),
        ])
        assert [o.status for o in outcomes] == [STATUS_APPLIED] * 2
        lost, restored = (
            {row.chain_name: row.delivered for row in phase.chains}
            for phase in daemon.report().phases[1:]
        )
        # enterprise's Encrypt runs on server0; residential stays on
        # the switch
        assert lost == {"enterprise": 0, "residential": 16}
        assert restored == {"enterprise": 16, "residential": 16}

    def test_statically_invalid_command_consumes_no_seq(self, config,
                                                        drive, tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            Depart(chain=""),
        ])
        assert outcomes[0].status == STATUS_INVALID
        assert daemon.seq == 0

    def test_snapshot_reads_without_journaling(self, config, drive,
                                               tmp_path):
        daemon, outcomes = drive(config, tmp_path / "state", [
            ARRIVE,
            Snapshot(),
        ])
        snap = outcomes[1]
        assert snap.status == STATUS_APPLIED
        assert snap.seq == 1  # the current head, not a new seq
        assert snap.snapshot["seq"] == 1
        assert {c["chain"] for c in snap.snapshot["active"]} == {
            "enterprise", "residential", "dyn0",
        }
        journal = Journal(tmp_path / "state" / "journal.jsonl")
        assert [r["seq"] for r in journal.replay()] == [1]

    def test_per_command_layers_report_to_the_daemon_registry(
            self, config, drive, tmp_path):
        """What ``/v1/metrics`` serves is the daemon's own registry: the
        solver, compiler and checkpoint timers of the commands it
        applied land there, not in the process default."""
        from repro.obs import scoped_registry

        with scoped_registry() as default:
            daemon, _ = drive(config, tmp_path / "state", [
                ARRIVE,
                Scale(chain="enterprise", t_min_mbps=1500.0),
            ])
        served = {h.name: h for h in daemon.registry.histograms()}
        for name in ("placer.solve.seconds",
                     "metacompiler.codegen.seconds",
                     "serve.checkpoint.seconds"):
            assert name in served, name
        # bootstrap (full) + two commands (incremental) each solved once
        assert sum(h.count for h in daemon.registry.histograms()
                   if h.name == "placer.solve.seconds") == 3
        # one periodic checkpoint (every 2) and the one at shutdown
        assert served["serve.checkpoint.seconds"].count == 2
        assert daemon.registry.gauge_value("serve.checkpoint.bytes") == \
            (tmp_path / "state" / "checkpoint.pkl").stat().st_size
        assert not list(default.histograms())
        assert not list(default.counters())

    def test_worker_survives_internal_errors(self, config, tmp_path):
        async def _run():
            daemon = ServeDaemon(config, tmp_path / "state")
            await daemon.start()
            real_core = daemon.core
            daemon.core = None  # sabotage: the next mutation raises
            broken = await daemon.submit(Depart(chain="enterprise"))
            daemon.core = real_core
            # the worker is still alive and answering
            snap = await daemon.submit(Snapshot())
            await daemon.stop(checkpoint=False)
            return broken, snap

        broken, snap = asyncio.run(_run())
        assert broken.status == STATUS_ERROR
        assert "AttributeError" in broken.error
        assert snap.status == STATUS_APPLIED


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "admission ignores the fault state: PlacementRequest refuses "
    "base_placement together with failed_devices, so an incremental "
    "arrival may land on a failed server (ROADMAP item 5)"
))
def test_an_arrival_avoids_a_failed_server(make_config, drive, tmp_path):
    """On ``multi-server`` with ``server1`` failed, an arriving
    ``ACL -> Encrypt -> IPv4Fwd`` is accepted — onto ``server1``."""
    from repro.hw.spec import topology_for

    daemon, outcomes = drive(
        make_config(topology=topology_for("multi-server")),
        tmp_path / "state", [
            InjectFault(action="fail", target="server1"),
            Arrive(chain="dyn0", spec="chain dyn0: ACL -> Encrypt -> IPv4Fwd",
                   t_min_mbps=1000.0),
        ])
    assert [o.status for o in outcomes] == [STATUS_APPLIED, STATUS_APPLIED]
    (arrived,) = [cp for cp in daemon.core.cores["r0"].placement.chains
                  if cp.name == "dyn0"]
    assert "server1" not in {sg.server for sg in arrived.subgroups}


def test_a_started_daemon_has_the_lp_solver_loaded(tmp_path):
    """``repro`` imports ``scipy.optimize`` on the first LP that binds;
    the daemon loads it in ``start()``, before it announces itself, so
    no command pays the import. (A fresh interpreter: this one has long
    loaded it.)"""
    script = textwrap.dedent("""
        import asyncio, sys
        from repro.serve import ServeConfig, ServeDaemon

        config = ServeConfig(
            spec_text="chain a: ACL -> IPv4Fwd\\n", slos=((1000.0, 20000.0),),
            packets_per_phase=8, flows_per_chain=4, batch_size=8,
        )

        async def main():
            daemon = ServeDaemon(config, sys.argv[1])
            assert "scipy.optimize" not in sys.modules
            await daemon.start()
            assert "scipy.optimize" in sys.modules
            await daemon.stop(checkpoint=False)

        asyncio.run(main())
    """)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "state")],
        env={**os.environ,
             "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestConfig:
    def test_round_trip(self, config):
        assert ServeConfig.parse_json(config.to_json()) == config

    def test_unknown_field_rejected(self, config):
        """Including the keys older daemons wrote (``pool``, the rack
        flags): a state dir is read by the code that wrote it."""
        payload = json.loads(config.to_json())
        for key in ("turbo", "pool", "with_smartnic", "servers"):
            with pytest.raises(ServeError, match="unknown fields"):
                ServeConfig.from_dict({**payload, key: True})
        with pytest.raises(ServeError, match="malformed serve config"):
            ServeConfig.from_dict({**payload, "topology": None})

    def test_config_is_persisted_and_verified(self, config, make_config,
                                              drive, tmp_path):
        drive(config, tmp_path / "state", [])
        stored = ServeConfig.parse_json(
            (tmp_path / "state" / "config.json").read_text()
        )
        assert stored == config
        with pytest.raises(ServeError, match="different configuration"):
            drive(make_config(seed=99), tmp_path / "state", [])

    def test_validate_bounds(self, make_config):
        with pytest.raises(ServeError):
            make_config(packets_per_phase=0).validate()
        with pytest.raises(ServeError):
            make_config(checkpoint_every=-1).validate()


class TestReport:
    def test_render_and_protocol_surface(self, config, drive, tmp_path):
        daemon, _ = drive(config, tmp_path / "state", [ARRIVE])
        report = daemon.report()
        text = report.render()
        assert "control-plane report" in text
        assert "s1 t1 arrive dyn0 -> accepted" in text
        assert report.ok is True
        doc = json.loads(report.to_json())
        assert doc["seq"] == 1
        assert doc["commands"][0]["command"]["kind"] == "arrive"
        # recovered is process metadata, not run output (the recovery
        # invariant compares as_dict across restarts)
        assert "recovered" not in doc
