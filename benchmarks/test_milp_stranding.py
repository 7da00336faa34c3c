"""Extension bench: the MILP's conservative stage model strands resources.

§3.2 explains why Lemur does not place with an off-the-shelf MILP: solvers
cannot invoke the hardware compiler, and "we could have modeled the PISA
switch placement conservatively, but this would have resulted in stranded
resources". This bench constructs a workload where the distinction bites:
many NAT chains whose tables *do* fit the real (simulated) compiler's
packing but exceed the MILP's per-NF stage estimates, forcing the MILP to
push NATs into software and lose marginal throughput.
"""

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.heuristic import heuristic_place
from repro.core.milp import milp_place
from repro.hw.platform import Platform
from repro.hw.spec import topology_for
from repro.units import gbps

N_CHAINS = 8


def _chains():
    spec = "\n".join(
        f"chain nat{i}: NAT -> IPv4Fwd" for i in range(N_CHAINS)
    )
    return chains_from_spec(
        spec, slos=[SLO(t_min=100.0, t_max=gbps(100))] * N_CHAINS
    )


def _nats_on_switch(placement):
    return sum(
        1 for cp in placement.chains
        for nid, a in cp.assignment.items()
        if a.platform is Platform.PISA
        and cp.chain.graph.nodes[nid].nf_class == "NAT"
    )


def test_milp_strands_switch_resources(benchmark, profiles):
    chains = _chains()
    topo = topology_for("paper-testbed").build()

    def run():
        return (
            milp_place(chains, topo, profiles),
            heuristic_place(chains, topo, profiles),
        )

    milp, lemur = run_once(benchmark, run)
    assert milp.feasible and lemur.feasible

    milp_nats = _nats_on_switch(milp)
    lemur_nats = _nats_on_switch(lemur)
    record_result(
        "milp_stranding",
        f"{N_CHAINS} NAT chains: NATs on switch — MILP {milp_nats}, "
        f"compiler-checked heuristic {lemur_nats}\n"
        f"marginal — MILP {milp.objective_mbps:.0f} Mbps, "
        f"heuristic {lemur.objective_mbps:.0f} Mbps",
    )

    # the compiler-checked heuristic offloads every NAT; the MILP's
    # conservative stage arithmetic refuses some of them
    assert lemur_nats == N_CHAINS
    assert milp_nats < lemur_nats
    assert lemur.objective_mbps >= milp.objective_mbps
