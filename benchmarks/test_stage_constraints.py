"""E11: §5.2's extreme configuration — P4 stage constraints.

``BPF -> 11xNAT (branched) -> IPv4Fwd`` at δ = 0.5. Reproduction targets:

* placing all 11 NATs on the switch exceeds the 12-stage budget, so every
  hardware-first alternative fails, while Lemur finds a feasible solution
  with 10 NATs on the switch and one on the server;
* the platform compiler packs the 10-NAT pipeline into 12 stages where
  the conservative analytic estimate says 14 (paper: 14 vs 12);
* naive codegen (no dependency elimination) needs ~27 stages (paper: 27).
"""

from conftest import record_result, run_once

from repro.chain.slo import SLO
from repro.experiments.chains import base_rate_mbps, nat_stress_chain
from repro.experiments.figures import stage_constraint_experiment
from repro.hw.spec import topology_for
from repro.units import gbps

#: the paper rack's spec; ``.build()`` gives each placement its own Topology.
TESTBED = topology_for("paper-testbed")


def test_stage_constraint_experiment(benchmark, profiles):
    result = run_once(
        benchmark, lambda: stage_constraint_experiment(profiles=profiles)
    )
    record_result("stage_constraints", result.print_table())

    assert not result.all_switch_11_fits
    assert result.lemur_feasible
    assert result.lemur_nats_on_switch == 10
    assert result.compiler_stages_10 == 12
    assert result.conservative_stages_10 == 14
    assert result.naive_stages_10 >= 24
    assert result.conservative_stages_10 > result.compiler_stages_10


def test_hardware_first_alternatives_fail(benchmark, profiles):
    """HW Preferred / Greedy / Min Bounce exceed stages; SW Preferred
    cannot satisfy the SLO (§5.2).

    The SW-Preferred failure needs t_min above one BPF core's rate (its
    branch-node subgroup cannot replicate); with our base-rate scale that
    is δ = 1.0 rather than the paper's 0.5 — the mechanism is identical.
    """
    from repro.core.baselines import (
        greedy_place,
        hw_preferred_place,
        min_bounce_place,
        sw_preferred_place,
    )

    chain = nat_stress_chain(11)
    base = base_rate_mbps(chain, profiles)
    chains = [chain.with_slo(SLO(t_min=1.0 * base, t_max=gbps(100)))]

    def run():
        return {
            "hw": hw_preferred_place(chains, TESTBED.build(), profiles),
            "greedy": greedy_place(chains, TESTBED.build(), profiles),
            "minbounce": min_bounce_place(chains, TESTBED.build(), profiles),
            "sw": sw_preferred_place(chains, TESTBED.build(), profiles),
        }

    placements = run_once(benchmark, run)
    rows = [f"{name}: {'feasible' if p.feasible else p.infeasible_reason}"
            for name, p in placements.items()]
    record_result("stage_constraints_alternatives", "\n".join(rows))

    assert not placements["hw"].feasible
    assert "stages" in placements["hw"].infeasible_reason
    assert not placements["greedy"].feasible
    assert not placements["sw"].feasible  # NAT subgroup can't replicate
