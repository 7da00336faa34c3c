"""E13: §5.3 — latency-constrained placement (chains {1, 4}).

Reproduction target: a loose delay SLO lets Lemur add switch↔server
bounces for marginal throughput; tightening it forces a low-bounce
placement with visibly lower throughput (paper: 45 µs → >21 Gbps,
25 µs → 9 Gbps; absolute µs thresholds differ with our latency model, the
loose/tight shape is the target).
"""

from conftest import record_result, run_once

from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.experiments.chains import chains_with_delta
from repro.hw.spec import topology_for

#: the paper rack's spec; ``.build()`` gives each placement its own Topology.
TESTBED = topology_for("paper-testbed")

LOOSE_US = 45.0
TIGHT_US = 32.0


def _with_dmax(chains, d_max):
    return [
        c.with_slo(SLO(t_min=c.slo.t_min, t_max=c.slo.t_max, d_max=d_max))
        for c in chains
    ]


def test_latency_slo_tradeoff(benchmark, profiles):
    def run():
        out = {}
        for d_max in (LOOSE_US, TIGHT_US):
            chains = _with_dmax(
                chains_with_delta([1, 4], delta=0.5, profiles=profiles),
                d_max,
            )
            out[d_max] = heuristic_place(chains, TESTBED.build(), profiles)
        return out

    results = run_once(benchmark, run)
    loose, tight = results[LOOSE_US], results[TIGHT_US]

    rows = []
    for d_max, placement in results.items():
        bounces = [cp.bounces for cp in placement.chains]
        latencies = [f"{cp.latency_us:.1f}" for cp in placement.chains]
        rows.append(
            f"d_max={d_max:5.1f}us: feasible={placement.feasible} "
            f"marginal={placement.objective_mbps:.0f} Mbps "
            f"bounces={bounces} latencies={latencies}us"
        )
    record_result("latency_slo", "\n".join(rows))

    assert loose.feasible and tight.feasible
    # tighter budget -> fewer bounces -> lower marginal throughput
    assert max(cp.bounces for cp in tight.chains) < \
        max(cp.bounces for cp in loose.chains)
    assert tight.objective_mbps < loose.objective_mbps
    for placement in (loose, tight):
        for cp in placement.chains:
            assert cp.latency_us <= cp.chain.slo.d_max
