"""E16: Table 1 — the SLO vocabulary's operator use cases, end to end.

Each Table 1 row is expressed as an SLO, classified, placed by Lemur, and
checked: the placement guarantees at least t_min and the rate LP never
assigns above t_max (bursts are capped at the contract).
"""

import math

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import (
    SLOUseCase,
    bulk,
    elastic_pipe,
    infinite_pipe,
    metered_bulk,
    virtual_pipe,
)
from repro.core.heuristic import heuristic_place
from repro.hw.spec import topology_for
from repro.units import gbps

#: the paper rack's spec; ``.build()`` gives each placement its own Topology.
TESTBED = topology_for("paper-testbed")

CASES = [
    ("bulk", bulk(), SLOUseCase.BULK),
    ("metered bulk", metered_bulk(gbps(2)), SLOUseCase.METERED_BULK),
    ("virtual pipe", virtual_pipe(gbps(3)), SLOUseCase.VIRTUAL_PIPE),
    ("elastic pipe", elastic_pipe(gbps(2), gbps(10)),
     SLOUseCase.ELASTIC_PIPE),
    ("infinite pipe", infinite_pipe(gbps(2)), SLOUseCase.INFINITE_PIPE),
]


def test_table1_use_cases(benchmark, profiles):
    def run():
        rows = []
        for name, slo, expected in CASES:
            chains = chains_from_spec(
                "chain t1: ACL -> Encrypt -> IPv4Fwd", slos=[slo]
            )
            placement = heuristic_place(chains, TESTBED.build(), profiles)
            rows.append((name, slo, expected, placement))
        return rows

    rows = run_once(benchmark, run)
    lines = [f"{'use case':<14} {'t_min':>8} {'t_max':>9} {'rate':>9}"]
    for name, slo, expected, placement in rows:
        assert slo.use_case is expected
        assert placement.feasible
        rate = placement.rates["t1"]
        assert rate >= slo.t_min - 1e-6
        if not math.isinf(slo.t_max):
            assert rate <= slo.t_max + 1e-6
        tmax = "inf" if math.isinf(slo.t_max) else f"{slo.t_max:.0f}"
        lines.append(f"{name:<14} {slo.t_min:8.0f} {tmax:>9} {rate:9.0f}")
    record_result("table1", "\n".join(lines))

    # the virtual pipe gets *exactly* its contract
    virtual = next(r for r in rows if r[0] == "virtual pipe")
    assert virtual[3].rates["t1"] == virtual[1].t_min
