"""End-to-end: a rate-compliant chain trips the tail-latency guard.

The chain's burst cap lets the LP assign the full 30 Gbps, which under
the M/M/1 model drives utilization (and hence the stamped queueing wait)
high enough that windowed p99 blows through ``d_max`` while every rate
SLO still holds. The guard must classify that as a violation, climb its
ladder (shed to minimums first), and the post-shed phase — with rates at
the t_min floor and queue factors re-derived from the lower utilization —
must come back under the latency SLO.
"""

from repro.sim.faults import (
    ChaosSpec,
    FaultTimeline,
    GuardConfig,
    run_chaos,
)
from repro.units import SLO_RTOL, gbps

#: between the ~13 µs p99 at t_min rates and the ~90 µs p99 at full rate.
_D_MAX_US = 40.0


def _spec(**overrides):
    base = dict(
        spec_text="chain a: Encrypt -> IPv4Fwd",
        slos=((gbps(0.5), gbps(30), _D_MAX_US),),
        timeline=FaultTimeline(events=(), seed=23),
        packets_per_chain=512,
        flows_per_chain=32,
        batch_size=32,
        guard=GuardConfig(window_packets=128),
        seed=23,
        queueing="mm1",
    )
    base.update(overrides)
    return ChaosSpec(**base)


def test_latency_guard_sheds_and_restores_p99():
    report = run_chaos(_spec())

    # the guard saw a pure-latency violation and reacted by shedding
    assert report.latency_violations >= 1
    assert report.degradations == 1
    assert report.replans == 0

    first, final = report.phases[0], report.phases[-1]
    assert not first.compliant
    assert first.chains[0].latency_p99_us > _D_MAX_US

    # recovery: rates at the t_min floor, p99 back under the SLO
    assert final.mode == "degraded"
    assert final.compliant
    row = final.chains[0]
    assert row.latency_p99_us <= _D_MAX_US * (1.0 + SLO_RTOL)
    assert row.latency_slo_met

    # the violation was latency, never rate: every phase met its t_min
    for phase in report.phases:
        for chain_row in phase.chains:
            assert phase.rate_slo_met(chain_row)


def test_no_violation_without_queueing_model():
    """Control: the identical workload under the fixed-cost model sits
    comfortably inside the same d_max — the violation above is entirely
    utilization-dependent queueing delay."""
    report = run_chaos(_spec(queueing="none"))
    assert report.ok
    assert report.latency_violations == 0
    assert report.degradations == 0


def test_tail_latency_objective_prevents_violation():
    """Solving the same chain set with the tail-aware objective caps
    per-device utilization up front, so the guard never has to react."""
    report = run_chaos(_spec(objective="tail_latency"))
    assert report.ok
    assert report.latency_violations == 0
    assert report.degradations == 0
    # the cap costs assigned rate relative to the throughput objective
    for phase in report.phases:
        for row in phase.chains:
            assert row.assigned_mbps < gbps(30)
            assert row.assigned_mbps >= gbps(0.5)
