"""E12: §5.2 — sensitivity to profiling errors.

"We conducted an experiment in which we reduced the profiled costs by a
fraction, ranging from 1% to 10%, mimicking errors in profiling. We found
that, even with these errors, Lemur produces a configuration with the same
aggregate marginal throughput as the baseline, up to 8% errors."

We make placement decisions with under-estimated profiles, then *measure*
each decided configuration on the simulated testbed (true profiles) — the
same way the paper's testbed would absorb the error — and compare the
measured aggregate marginal against the error-free baseline.
"""

import pytest

from conftest import record_result, run_once

from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for
from repro.sim.testbed import TestbedSimulator

ERRORS = (0.0, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10)


def _config_signature(placement):
    sig = []
    for cp in placement.chains:
        assignment = tuple(sorted(
            (nid, str(a)) for nid, a in cp.assignment.items()
        ))
        cores = tuple(sorted((sg.sg_id, sg.cores) for sg in cp.subgroups))
        sig.append((cp.name, assignment, cores))
    return tuple(sig)


def test_profile_error_sensitivity(benchmark, profiles):
    # δ=1.25 keeps the baseline off a core-count knife edge (δ=1.0 puts
    # a subgroup exactly at a ceil boundary, where any error flips it)
    chains = chains_with_delta([1, 2, 3], delta=1.25, profiles=profiles)
    topology = topology_for("paper-testbed").build()
    sim = TestbedSimulator(topology=topology, profiles=profiles, seed=5)

    def run():
        results = {}
        for error in ERRORS:
            erroneous = profiles.with_error(-error)
            decided = heuristic_place(chains, topology, erroneous)
            assert decided.feasible, f"error {error}: placement failed"
            report = sim.run(decided)
            results[error] = (decided, report)
        return results

    results = run_once(benchmark, run)
    base_placement, base_report = results[0.0]
    base_marginal = base_report.aggregate_marginal_mbps
    base_sig = _config_signature(base_placement)

    rows = []
    stable_up_to = 0.0
    for error in ERRORS:
        decided, report = results[error]
        same_config = _config_signature(decided) == base_sig
        marginal = report.aggregate_marginal_mbps
        rows.append(
            f"error {error:4.0%}: measured marginal {marginal:8.0f} Mbps "
            f"(config {'unchanged' if same_config else 'CHANGED'})"
        )
        if abs(marginal - base_marginal) <= 0.02 * base_marginal:
            stable_up_to = max(stable_up_to, error)
    record_result("profile_error", "\n".join(rows))

    # the paper found the same marginal throughput up to 8% error
    assert stable_up_to >= 0.08
    # and tiny errors must not change the configuration at all
    assert _config_signature(results[0.01][0]) == base_sig
