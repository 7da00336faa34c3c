"""E1-E5: Figure 2(a-e) — scheme comparison over the δ sweep.

Five panels: chains {1,2,3,4} and every 3-subset. Each cell places the
chains with one scheme, generates code, and measures aggregate throughput
on the simulated testbed. Reproduction targets (shapes, §5.2):

* Lemur finds a feasible solution wherever any other scheme does;
* as δ grows, Lemur is the last scheme standing;
* SW Preferred and Min Bounce fail at much lower δ than HW Preferred /
  Greedy;
* measured throughput tracks the prediction (◇) closely;
* aggregate throughput decreases as δ increases (resources shift to
  expensive chains).

The Optimal (brute-force) scheme is evaluated on a coarser δ grid — the
paper itself reports ~4 hours for one brute-force run — and must match
Lemur's marginal throughput on almost every cell (§5.2 "in all but one").
"""

import pytest

from conftest import record_result, run_once

from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES

PANELS = {
    "fig2a": (1, 2, 3, 4),
    "fig2b": (1, 2, 3),
    "fig2c": (1, 2, 4),
    "fig2d": (1, 3, 4),
    "fig2e": (2, 3, 4),
}
DELTAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
FAST_SCHEMES = {k: v for k, v in SCHEMES.items() if k != "Optimal"}


@pytest.mark.parametrize("panel", list(PANELS), ids=list(PANELS))
def test_figure2_panel(benchmark, panel, profiles):
    indices = PANELS[panel]

    sweep = run_once(
        benchmark,
        lambda: run_sweep(SweepSpec(indices, deltas=DELTAS,
                                    schemes=FAST_SCHEMES, profiles=profiles)),
    )
    record_result(panel, sweep.print_table())

    # Lemur dominates: feasible wherever anyone is, with >= marginal.
    for delta in DELTAS:
        lemur = next(r for r in sweep.results
                     if r.scheme == "Lemur" and r.delta == delta)
        for result in sweep.results:
            if result.delta != delta or result.scheme == "Lemur":
                continue
            if result.feasible:
                assert lemur.feasible, (
                    f"{panel} δ={delta}: {result.scheme} feasible but "
                    f"Lemur is not"
                )
                assert lemur.marginal_mbps >= result.marginal_mbps - 1e-6

    # Lemur survives strictly further than the weak baselines.
    assert sweep.feasibility_fraction("Lemur") > \
        sweep.feasibility_fraction("SW Preferred")
    assert sweep.feasibility_fraction("Lemur") > \
        sweep.feasibility_fraction("Min Bounce")

    # Measured tracks predicted within 15% on feasible cells.
    for result in sweep.results:
        if result.feasible and result.predicted_mbps > 0:
            assert result.measured_mbps == pytest.approx(
                result.predicted_mbps, rel=0.15
            )

    # Aggregate throughput for Lemur does not increase with δ.
    lemur_cells = [r for r in sweep.for_scheme("Lemur") if r.feasible]
    rates = [r.measured_mbps for r in lemur_cells]
    assert rates[0] == max(rates) or rates[0] >= 0.95 * max(rates)


def test_optimal_matches_lemur(benchmark, profiles):
    """Optimal vs Lemur on the 4-chain panel (coarse δ grid)."""
    from repro.hw.spec import topology_for
    from repro.core.bruteforce import brute_force_place
    from repro.core.heuristic import heuristic_place
    from repro.experiments.chains import chains_with_delta

    TESTBED = topology_for("paper-testbed")

    deltas = (0.5, 1.0, 1.5)
    rows = []

    def run():
        out = []
        for delta in deltas:
            chains = chains_with_delta([1, 2, 3, 4], delta,
                                       profiles=profiles)
            optimal = brute_force_place(chains, TESTBED.build(), profiles)
            lemur = heuristic_place(chains, TESTBED.build(), profiles)
            out.append((delta, optimal, lemur))
        return out

    results = run_once(benchmark, run)
    matched = 0
    for delta, optimal, lemur in results:
        rows.append(
            f"δ={delta}: optimal="
            f"{optimal.objective_mbps:.0f} lemur={lemur.objective_mbps:.0f}"
            if optimal.feasible else f"δ={delta}: both infeasible"
        )
        assert optimal.feasible == lemur.feasible
        if optimal.feasible:
            assert optimal.objective_mbps >= lemur.objective_mbps - 1e-6
            if optimal.objective_mbps <= lemur.objective_mbps + 1.0:
                matched += 1
    record_result("fig2_optimal_vs_lemur", "\n".join(rows))
    # Lemur matches Optimal in all but at most one cell (§5.2).
    feasible_cells = sum(1 for _d, o, _l in results if o.feasible)
    assert matched >= feasible_cells - 1
