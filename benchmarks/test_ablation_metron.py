"""Extension ablation: Metron-style ToR core steering (§3.2/§4.2).

The paper plans to "generate PISA switch code to tag and steer packets to
specific cores as in Metron", removing the software demultiplexer's core
and its ~180-cycle per-packet load-balancing cost. This bench quantifies
that future-work item on our substrate: Metron steering must never hurt,
must free one core per server, and should push feasibility to higher δ.
"""

from conftest import record_result, run_once

from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for

#: the paper rack's spec; ``.build()`` gives each placement its own Topology.
TESTBED = topology_for("paper-testbed")

DELTAS = (0.5, 1.0, 1.5, 2.0, 2.5)


def test_metron_steering_ablation(benchmark, profiles):
    def run():
        rows = []
        for delta in DELTAS:
            chains = chains_with_delta([1, 2, 3, 4], delta,
                                       profiles=profiles)
            plain = heuristic_place(chains, TESTBED.build(), profiles)
            metron = heuristic_place(
                chains,
                topology_for("paper-testbed", metron_steering=True).build(),
                profiles,
            )
            rows.append((delta, plain, metron))
        return rows

    rows = run_once(benchmark, run)
    lines = []
    metron_extra_feasible = 0
    for delta, plain, metron in rows:
        plain_s = (f"{plain.objective_mbps:8.0f}" if plain.feasible
                   else "     INF")
        metron_s = (f"{metron.objective_mbps:8.0f}" if metron.feasible
                    else "     INF")
        lines.append(f"δ={delta}: demux-core {plain_s}  metron {metron_s}"
                     f"  (marginal Mbps)")
        if plain.feasible:
            assert metron.feasible
            assert metron.objective_mbps >= plain.objective_mbps - 1e-6
        if metron.feasible and not plain.feasible:
            metron_extra_feasible += 1
    record_result("ablation_metron", "\n".join(lines))

    # the freed core + removed LB cycles must buy at least one extra
    # feasible δ or a strictly better marginal somewhere
    improvements = sum(
        1 for _d, plain, metron in rows
        if metron.feasible and (
            not plain.feasible
            or metron.objective_mbps > plain.objective_mbps + 1.0
        )
    )
    assert improvements >= 1
