"""E15: §5.3 — Placer computation scaling.

"Brute-force placement is slow; for the 4-chain case (34 NF instances in
total) it takes 14901 seconds (~4 hours). Our heuristic is far faster,
taking 3.5 s for the 4-chain case."

Reproduction target: the heuristic is orders of magnitude (>= 100x)
faster than the bounded brute-force search on the 4-chain input, and
completes in interactive time. (Our brute force bounds its combination
budget, so its absolute runtime is far below 4 hours; the gap, not the
absolute, is the target.)
"""

import time

from conftest import record_result, run_once

from repro.core.bruteforce import brute_force_place
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for

#: the paper rack's spec; ``.build()`` gives each placement its own Topology.
TESTBED = topology_for("paper-testbed")


def test_heuristic_speed(benchmark, profiles):
    """The heuristic itself, timed properly over several rounds."""
    chains = chains_with_delta([1, 2, 3, 4], delta=1.0, profiles=profiles)

    placement = benchmark(
        lambda: heuristic_place(chains, TESTBED.build(), profiles)
    )
    assert placement.feasible
    # interactive: well under the paper's 3.5 s
    assert benchmark.stats["mean"] < 3.5


def test_bruteforce_vs_heuristic_gap(benchmark, profiles):
    chains = chains_with_delta([1, 2, 3, 4], delta=1.0, profiles=profiles)

    def run():
        t0 = time.perf_counter()
        optimal = brute_force_place(chains, TESTBED.build(), profiles)
        brute_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        lemur = heuristic_place(chains, TESTBED.build(), profiles)
        heuristic_seconds = time.perf_counter() - t0
        return optimal, lemur, brute_seconds, heuristic_seconds

    optimal, lemur, brute_seconds, heuristic_seconds = run_once(
        benchmark, run
    )
    ratio = brute_seconds / max(heuristic_seconds, 1e-9)
    record_result(
        "placer_scaling",
        f"brute force: {brute_seconds:.2f}s  heuristic: "
        f"{heuristic_seconds * 1000:.1f}ms  ratio: {ratio:.0f}x\n"
        f"(paper: 14901s vs 3.5s = ~4257x, with an unbounded search)",
    )
    assert lemur.feasible
    assert optimal.feasible
    assert ratio >= 100.0
    # heuristic quality: same objective as the bounded optimal here
    assert lemur.objective_mbps >= 0.95 * optimal.objective_mbps
