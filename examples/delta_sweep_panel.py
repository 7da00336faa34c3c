#!/usr/bin/env python3
"""Regenerate a miniature Figure-2 panel at the terminal.

Sweeps δ (t_min = δ x base rate, §5.1) for canonical chains {1,2,3} and
prints, per scheme: feasibility, aggregate t_min, predicted (◇) and
measured throughput, and marginal throughput — the same series the
paper's bars encode. The full sweeps live in ``benchmarks/``.

Run: ``python examples/delta_sweep_panel.py``
"""

from repro.experiments.runner import SweepSpec, run_sweep
from repro.experiments.schemes import SCHEMES


def main() -> None:
    # Optimal is excluded here to keep the example snappy; the benchmark
    # harness runs it.
    schemes = {k: v for k, v in SCHEMES.items() if k != "Optimal"}
    sweep = run_sweep(SweepSpec(
        chain_indices=[1, 2, 3],
        deltas=(0.5, 1.0, 1.5, 2.0),
        schemes=schemes,
    ))
    print(sweep.print_table())
    print()
    for scheme in schemes:
        print(
            f"{scheme:<14} feasible at "
            f"{sweep.feasibility_fraction(scheme):.0%} of δ values"
        )
    print(
        f"\nLemur's max marginal-throughput lead over the best "
        f"competitor: {sweep.max_marginal_lead_mbps() / 1000:.2f} Gbps"
    )


if __name__ == "__main__":
    main()
