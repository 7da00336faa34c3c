"""E17: §5.2 comparison summary.

"Across all experiments, Lemur can always find a feasible solution while
other approaches only do 17-76% of the time. Moreover, overall, Lemur
obtains a marginal throughput lead ranging from 500 Mbps to nearly
24 Gbps (at the latter end, more than 50% of link capacity)."

Reproduction targets over all five panels: Lemur feasible in every cell
where *any* scheme is feasible; every competitor lands in a clearly lower
feasibility band; and Lemur's maximum marginal lead exceeds 50% of the
40 Gbps server-link capacity.
"""

from conftest import record_result, run_once

from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES
from repro.units import gbps

PANELS = [(1, 2, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
DELTAS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
FAST_SCHEMES = {k: v for k, v in SCHEMES.items() if k != "Optimal"}


def test_summary(benchmark, profiles):
    def run():
        return [
            run_sweep(SweepSpec(panel, deltas=DELTAS, schemes=FAST_SCHEMES,
                                profiles=profiles, measure=False))
            for panel in PANELS
        ]

    sweeps = run_once(benchmark, run)

    # feasibility fractions relative to the cells Lemur can solve
    lemur_cells = 0
    feasible_counts = {name: 0 for name in FAST_SCHEMES}
    max_lead = 0.0
    for sweep in sweeps:
        for cell in sweep.for_scheme("Lemur"):
            if cell.feasible:
                lemur_cells += 1
        for name in FAST_SCHEMES:
            feasible_counts[name] += sum(
                1 for c in sweep.for_scheme(name) if c.feasible
            )
        max_lead = max(max_lead, sweep.max_marginal_lead_mbps("Lemur"))

    rows = [f"Lemur-solvable cells: {lemur_cells} / "
            f"{len(PANELS) * len(DELTAS)}"]
    for name, count in feasible_counts.items():
        share = count / lemur_cells
        rows.append(f"{name:<14} feasible in {count} cells "
                    f"({share:.0%} of Lemur's)")
    rows.append(f"max marginal lead: {max_lead / 1000:.2f} Gbps "
                f"({max_lead / gbps(40):.0%} of the 40G link)")
    record_result("summary_feasibility", "\n".join(rows))

    # Lemur always solvable where anyone is (checked per-cell too)
    for sweep in sweeps:
        for cell in sweep.results:
            if cell.feasible and cell.scheme != "Lemur":
                lemur = next(
                    c for c in sweep.for_scheme("Lemur")
                    if c.delta == cell.delta
                )
                assert lemur.feasible

    # competitors in a visibly lower feasibility band (paper: 17-76%)
    for name, count in feasible_counts.items():
        if name == "Lemur":
            continue
        assert count / lemur_cells <= 0.9

    # the headline lead: more than 50% of the 40G link capacity
    assert max_lead > 0.5 * gbps(40)
