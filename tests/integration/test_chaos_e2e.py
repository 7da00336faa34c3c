"""End-to-end chaos: Fig-2-style testbed, SmartNIC failure, guard replan.

The acceptance scenario: deploy chains onto the SmartNIC-equipped testbed,
fail the SmartNIC mid-run, and require that the guard detects the SLO
violation, replans, and that every surviving chain meets its SLO minimum
after the replan — all asserted from the TrafficEngine's per-chain report
rows. The chaos report must also be byte-identical across repeated runs
and across ``--jobs`` settings.
"""

import pytest

from repro.hw.spec import topology_for
from repro.obs import MetricsRegistry
from repro.sim.faults import (
    ChaosSpec,
    FaultEvent,
    FaultTimeline,
    GuardConfig,
    run_chaos,
    run_chaos_checked,
)
from repro.units import gbps


def _fig2_spec(**overrides):
    """Two chains on the SmartNIC testbed; FastEncrypt rides agilio0."""
    base = dict(
        spec_text=(
            "chain c: BPF -> FastEncrypt -> IPv4Fwd\n"
            "chain d: ACL -> IPv4Fwd"
        ),
        slos=((gbps(1), gbps(39)), (gbps(1), gbps(20))),
        timeline=FaultTimeline(events=(
            FaultEvent(at_packet=256, action="fail", target="agilio0"),
        ), seed=23),
        packets_per_chain=768,
        flows_per_chain=16,
        batch_size=32,
        guard=GuardConfig(window_packets=64),
        topology=topology_for("paper-smartnic"),
    )
    base.update(overrides)
    return ChaosSpec(**base)


class TestSmartNICFailureEndToEnd:
    def test_guard_detects_replans_and_restores_slos(self):
        registry = MetricsRegistry()
        report = run_chaos(_fig2_spec(), registry=registry)

        # the failure was detected...
        assert report.violations >= 1
        assert registry.counter_value("slo.violations", chain="c") >= 1
        # ...the guard degraded, then replanned off the dead SmartNIC...
        assert report.degradations >= 1
        assert report.replans == 1
        assert registry.counter_value("replan.count") == 1
        assert registry.counter_value(
            "faults.injected", action="fail", target="agilio0") == 1
        # ...and the replanned placement meets every SLO minimum again,
        # asserted from the traffic engine's per-chain report rows.
        final = report.phases[-1]
        assert final.label == "replanned"
        assert {row.chain_name for row in final.chains} == {"c", "d"}
        for row in final.chains:
            t_min = final.t_mins[row.chain_name]
            assert t_min > 0
            assert row.delivered_mbps >= t_min, (
                f"{row.chain_name} delivers {row.delivered_mbps:.1f} Mbps "
                f"< SLO minimum {t_min:.1f} Mbps after replan"
            )
        assert final.compliant
        # replan latency histogram exported
        snapshot = registry.snapshot()
        assert any(
            h["name"] == "replan.latency_seconds"
            for h in snapshot["histograms"]
        )

    def test_chain_untouched_by_failure_never_violates(self):
        registry = MetricsRegistry()
        run_chaos(_fig2_spec(), registry=registry)
        # chain d never used the SmartNIC, so it never violated
        assert registry.counter_value("slo.violations", chain="d") == 0

    def test_report_byte_identical_across_repeats(self):
        """Nothing is remembered between runs: the same failure on the
        same problem is replanned again, to the same bytes."""
        first = run_chaos(_fig2_spec())
        second = run_chaos(_fig2_spec())
        assert first.replans == second.replans == 1
        assert second.phases[-1].compliant
        assert first.render() == second.render()
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_report_byte_identical_across_jobs(self, jobs):
        """`--jobs` only adds replica cross-checks; output is invariant."""
        serial = run_chaos(_fig2_spec())
        checked = run_chaos_checked(_fig2_spec(), jobs=jobs)
        assert checked.render() == serial.render()

