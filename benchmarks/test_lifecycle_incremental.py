"""Lifecycle acceptance: incremental admission beats a cold re-solve.

The online lifecycle engine admits one arriving chain against a
12-chain steady state by warm-starting from the live placement
(`PlacementRequest.base_placement`): running chains keep their
NF-to-device assignments, only the delta chain is placed, and delta
stage checks compile against the pinned switch program. The cold
solver re-searches patterns for all 13 chains from scratch.

Reproduction target: on a rack where the steady state saturates the
ToR stage budget (the regime where cold placement search works
hardest), the incremental solve is >= 3x faster than the cold solve
and reaches the same admission verdict.
"""

import time

from conftest import record_result, run_once

from repro.chain.graph import chains_from_spec
from repro.chain.slo import SLO
from repro.core.placer import Placer, PlacementRequest
from repro.experiments.chains import _CHAIN_SPECS
from repro.hw.spec import topology_for
from repro.units import gbps

NUM_CHAINS = 12
NUM_SERVERS = 6
NUM_STAGES = 13


def _steady_state_chains():
    lines = []
    for i in range(NUM_CHAINS):
        index = (i % 5) + 1
        lines.append(_CHAIN_SPECS[index].replace(
            f"chain chain{index}:", f"chain c{i}:"))
    slos = [SLO(t_min=gbps(0.3), t_max=gbps(2))] * NUM_CHAINS
    return chains_from_spec("\n".join(lines), slos=slos)


def test_incremental_arrival_vs_cold_resolve(benchmark):
    chains = _steady_state_chains()
    (arrival,) = chains_from_spec(
        "chain dyn0: Monitor -> IPv4Fwd",
        slos=[SLO(t_min=gbps(0.3), t_max=gbps(2))],
    )
    placer = Placer(topology=topology_for(
        "multi-server", servers=NUM_SERVERS, num_stages=NUM_STAGES).build())
    base = placer.solve(PlacementRequest(chains=chains))
    assert base.placement.feasible

    def run():
        grown = list(chains) + [arrival]
        t0 = time.perf_counter()
        incremental = placer.solve(PlacementRequest(
            chains=grown, base_placement=base.placement))
        incremental_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = placer.solve(PlacementRequest(chains=grown))
        cold_seconds = time.perf_counter() - t0
        return incremental, cold, incremental_seconds, cold_seconds

    incremental, cold, incremental_seconds, cold_seconds = run_once(
        benchmark, run
    )
    ratio = cold_seconds / max(incremental_seconds, 1e-9)
    record_result(
        "lifecycle_incremental",
        f"single arrival over {NUM_CHAINS}-chain steady state "
        f"({NUM_SERVERS} servers, {NUM_STAGES}-stage ToR)\n"
        f"cold full solve: {cold_seconds * 1000:.1f}ms  "
        f"incremental: {incremental_seconds * 1000:.1f}ms  "
        f"speedup: {ratio:.1f}x\n"
        f"pinned {incremental.pinned_chains} chains, placed "
        f"{incremental.placed_chains} (mode={incremental.mode})",
    )
    assert incremental.mode == "incremental"
    assert incremental.pinned_chains == NUM_CHAINS
    assert incremental.placed_chains == 1
    assert incremental.placement.feasible
    assert cold.placement.feasible
    assert ratio >= 3.0
    # admission guarantee: every chain still meets its SLO floor
    for cp in incremental.placement.chains:
        rate = incremental.placement.rates.get(cp.name, 0.0)
        assert rate >= cp.chain.slo.t_min - 1e-6
