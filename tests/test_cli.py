"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.hw.spec import TopologySpec, topology_for


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "chains.lemur"
    path.write_text(
        "chain a: ACL -> Encrypt -> IPv4Fwd\n"
        "chain b: BPF -> NAT -> IPv4Fwd\n"
    )
    return str(path)


class TestPlace:
    def test_basic(self, spec_file, capsys):
        code = main(["place", spec_file, "--tmin", "1", "1",
                     "--tmax", "30", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible=True" in out
        assert "pisa:tofino0" in out

    def test_infeasible_exit_code(self, spec_file, capsys):
        code = main(["place", spec_file, "--tmin", "90", "90"])
        assert code == 2

    def test_fair_flag(self, spec_file, capsys):
        code = main(["place", spec_file, "--tmin", "1", "1",
                     "--tmax", "100", "100", "--fair"])
        assert code == 0

    def test_reserve(self, spec_file, capsys):
        code = main(["place", spec_file, "--reserve", "4"])
        assert code == 0

    def test_strategy_selection(self, spec_file, capsys):
        code = main(["place", spec_file, "--strategy", "hw-preferred"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hw-preferred" in out

    def test_missing_file(self, capsys):
        code = main(["place", "/does/not/exist.lemur"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_multi_server_topology(self, spec_file, capsys):
        code = main(["place", spec_file, "--servers", "2"])
        assert code == 0


class TestCompile:
    def test_dump_p4(self, spec_file, capsys):
        code = main(["compile", spec_file, "--dump", "p4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "control ingress" in out

    def test_dump_bess(self, spec_file, capsys):
        code = main(["compile", spec_file, "--dump", "bess"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SubgroupDemux" in out

    def test_dump_paths(self, spec_file, capsys):
        code = main(["compile", spec_file, "--dump", "paths"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spi=" in out

    def test_stats_line(self, spec_file, capsys):
        code = main(["compile", spec_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto-generated" in out

    def test_out_directory(self, spec_file, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["compile", spec_file, "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "p4" / "unified.p4").is_file()
        assert (out_dir / "routing" / "paths.txt").is_file()
        assert "artifact file(s)" in capsys.readouterr().out


class TestTrace:
    def test_packets_delivered(self, spec_file, capsys):
        code = main(["trace", spec_file, "--packets", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 delivered" in out


class TestStats:
    def test_text_report_sections(self, spec_file, capsys):
        code = main(["stats", spec_file, "--packets", "4",
                     "--tmin", "1", "1", "--tmax", "30", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== chains ==" in out
        assert "== devices ==" in out
        assert "== metrics ==" in out
        assert "4/4 delivered" in out
        assert "placer.stage.seconds" in out
        assert "lp.solves" in out

    def test_json_document(self, spec_file, capsys):
        import json

        code = main(["stats", spec_file, "--packets", "4", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "placer_wall_clock_ms", "chains", "devices", "metrics",
        }
        chain = doc["chains"]["a"]
        assert chain["delivered"] == 4
        assert chain["latency_breakdown_us"]["exec_us"] >= 0
        assert chain["avg_latency_us"] == pytest.approx(
            sum(chain["latency_breakdown_us"].values())
        )
        assert doc["devices"]["server0"]["packets_in"] > 0
        names = {c["name"] for c in doc["metrics"]["counters"]}
        assert "lp.solves" in names
        assert "rack.packets.delivered" in names


class TestSweepProfile:
    def test_sweep(self, capsys):
        code = main(["sweep", "2", "--deltas", "0.5", "--no-measure"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemur" in out
        # one row per cell and no hit/miss tally: a sweep memoizes
        # nothing
        assert len([line for line in out.splitlines()
                    if "δ=0.5" in line]) == 5
        assert "cache" not in out

    @pytest.mark.parametrize("flag", ["--no-cache", "--cache"])
    def test_sweep_has_no_cache_switch(self, flag, capsys):
        assert main(["sweep", "1", flag]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profile(self, capsys):
        code = main(["profile", "--runs", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NAT (12000 entries)" in out


class TestTrafficCLI:
    def test_ok_run_exit_zero(self, spec_file, capsys):
        code = main(["traffic", spec_file, "--tmin", "1", "1",
                     "--packets", "64", "--flows", "8", "--batch", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t_min" in out and "slo" in out
        assert "VIOLATED" not in out

    def test_infeasible_exit_two(self, spec_file, capsys):
        code = main(["traffic", spec_file, "--tmin", "90", "90",
                     "--packets", "64", "--flows", "8", "--batch", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "infeasible" in err

    def test_json_document(self, spec_file, capsys):
        import json

        code = main(["traffic", spec_file, "--tmin", "1", "1",
                     "--packets", "64", "--flows", "8", "--batch", "8",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["ok"] is True
        assert {c["chain"] for c in doc["chains"]} == {"a", "b"}
        assert all(c["slo_met"] for c in doc["chains"])

    def test_out_file(self, spec_file, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["traffic", spec_file, "--tmin", "1", "1",
                     "--packets", "64", "--flows", "8", "--batch", "8",
                     "--out", str(out)])
        import json

        assert code == 0
        assert json.loads(out.read_text())["ok"] is True


class TestExitCodes:
    """The documented contract: 0 ok, 2 SLO non-compliance, 1 errors."""

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "exit codes" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main(["warp-speed"]) == 1

    def test_missing_argument_exits_one(self, capsys):
        assert main(["traffic"]) == 1

    def test_slo_violation_exits_two(self, capsys):
        from repro.cli_report import emit_report
        from repro.sim.traffic import ChainTrafficReport, TrafficReport

        violated = TrafficReport(chains=[ChainTrafficReport(
            chain_name="a", flows=1, injected=10, delivered=5, dropped=5,
            wall_seconds=0.1, assigned_mbps=100.0, t_min_mbps=100.0,
        )])
        assert not violated.ok
        assert emit_report(violated) == 2
        assert "VIOLATED" in capsys.readouterr().out


class TestTopologyFlags:
    """Every run subcommand states its rack once, as the TopologySpec the
    CLI's one translator builds from the flags."""

    #: where each subcommand hands its finished spec
    ENTRY = {
        "traffic": "repro.sim.traffic.run_traffic",
        "chaos": "repro.sim.faults.run_chaos_checked",
        "lifecycle": "repro.sim.lifecycle.run_lifecycle_checked",
        "serve": "repro.serve.run_server",
    }
    FLAGS = {
        "--smartnic": TopologySpec.from_flags(with_smartnic=True),
        "--openflow": TopologySpec.from_flags(with_openflow=True),
        "--servers 2": TopologySpec.from_flags(servers=2),
        "--metron": TopologySpec.from_flags(metron=True),
        "--racks 2": TopologySpec.from_flags(racks=2),
        "--preset two-rack": topology_for("two-rack"),
    }

    @pytest.mark.parametrize("flags", sorted(FLAGS))
    @pytest.mark.parametrize("command", sorted(ENTRY))
    def test_spec_carries_the_flagged_topology(
            self, command, flags, spec_file, tmp_path, monkeypatch):
        seen = []

        def capture(spec, *args, **kwargs):
            seen.append(spec)
            raise ReproError("captured before anything runs")

        monkeypatch.setattr(self.ENTRY[command], capture)
        argv = [command, spec_file, *flags.split()]
        if command == "serve":
            argv += ["--state-dir", str(tmp_path / "state")]
        assert main(argv) == 1
        (spec,) = seen
        assert spec.topology == self.FLAGS[flags]
