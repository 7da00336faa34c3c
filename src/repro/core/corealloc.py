"""Core allocation (§3.2 "Searching through Core Allocations").

Every subgroup needs at least one core. Replicable subgroups may receive
more to meet SLOs or raise marginal throughput. Four policies mirror the
paper's schemes:

* ``lemur`` — meet every chain's t_min first (water-filling the bottleneck
  subgroup), then spend spare cores where the aggregate marginal gain per
  core is largest;
* ``even`` — HW Preferred's policy: spare cores distributed round-robin
  across chains;
* ``by_index`` — Greedy's policy: meet t_min per chain, then pump chains to
  t_max sequentially by index;
* ``none`` — the No-Core-Allocation ablation: one core per subgroup, no
  scaling.

An exhaustive search (:func:`allocate_exhaustive`) exists as a correctness
oracle for tests and the brute-force placer on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.lp import RateSolution, solve_rates
from repro.core.placement import ChainPlacement, Subgroup
from repro.core.rates import estimate_chain_rate, subgroup_rate_on
from repro.exceptions import PlacementError
from repro.hw.topology import Topology
from repro.units import DEFAULT_PACKET_BITS


@dataclass
class AllocationResult:
    placements: List[ChainPlacement]
    feasible: bool
    reason: Optional[str] = None


def _server_budgets(topology: Topology) -> Dict[str, int]:
    return {
        s.name: s.allocatable_cores
        for s in topology.servers
        if s.name not in topology.failed_devices
    }


def _refresh_estimates(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int) -> None:
    for cp in placements:
        cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


def _rate_cap(cp: ChainPlacement, topology: Topology) -> float:
    port_rate = getattr(topology.switch, "port_rate_mbps", math.inf)
    cap = min(port_rate, cp.chain.slo.t_max)
    for nic_cap in cp.nic_caps.values():
        cap = min(cap, nic_cap)
    return cap


def _bottleneck_subgroup(cp: ChainPlacement, topology: Topology,
                         packet_bits: int,
                         budgets: Dict[str, int]) -> Optional[Subgroup]:
    """The chain's limiting subgroup, if it can usefully take another core."""
    best: Optional[Subgroup] = None
    best_rate = math.inf
    for sg in cp.subgroups:
        rate = subgroup_rate_on(sg, topology, packet_bits)
        if rate < best_rate:
            best_rate = rate
            best = sg
    if best is None:
        return None
    if not best.replicable or budgets.get(best.server, 0) <= 0:
        return None
    # adding a core is useless if something else caps the chain harder
    if best_rate >= _rate_cap(cp, topology):
        return None
    return best


def _grant_core(cp: ChainPlacement, sg: Subgroup,
                budgets: Dict[str, int]) -> None:
    sg.cores += 1
    budgets[sg.server] -= 1


def allocate_minimum(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> AllocationResult:
    """One core per subgroup — the mandatory floor."""
    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            sg.cores = 1
            budgets[sg.server] = budgets.get(sg.server, 0) - 1
    over = {s: b for s, b in budgets.items() if b < 0}
    if over:
        return AllocationResult(
            placements=placements, feasible=False,
            reason=f"not enough cores for one per subgroup: deficit {over}",
        )
    _refresh_estimates(placements, topology, packet_bits)
    return AllocationResult(placements=placements, feasible=True)


def meet_tmin(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
) -> AllocationResult:
    """Water-fill bottleneck subgroups until every chain reaches t_min."""
    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            budgets[sg.server] -= sg.cores
    _refresh_estimates(placements, topology, packet_bits)

    progress = True
    while progress:
        progress = False
        for cp in placements:
            if cp.estimated_rate + 1e-9 >= cp.chain.slo.t_min:
                continue
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)
            progress = True

    for cp in placements:
        if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
            return AllocationResult(
                placements=placements, feasible=False,
                reason=(
                    f"chain {cp.name} stuck at {cp.estimated_rate:.0f} Mbps "
                    f"< t_min {cp.chain.slo.t_min:.0f} Mbps"
                ),
            )
    return AllocationResult(placements=placements, feasible=True)


def allocate_cores(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
    policy: str = "lemur",
) -> AllocationResult:
    """Full allocation under the selected policy (see module docstring)."""
    minimum = allocate_minimum(placements, topology, packet_bits)
    if not minimum.feasible:
        return minimum
    if policy == "none":
        return _check_tmin(placements, topology, packet_bits)

    if policy == "even":
        # HW Preferred is *not* SLO-aware: spare cores go round-robin
        # regardless of t_min, so its rate is δ-independent and it fails
        # once a slow chain's even share cannot cover its minimum (§5.2).
        budgets = _server_budgets(topology)
        for cp in placements:
            for sg in cp.subgroups:
                budgets[sg.server] -= sg.cores
        _distribute_evenly(placements, topology, packet_bits, budgets)
        _refresh_estimates(placements, topology, packet_bits)
        return _check_tmin(placements, topology, packet_bits)

    met = meet_tmin(placements, topology, packet_bits)
    if not met.feasible:
        return met

    budgets = _server_budgets(topology)
    for cp in placements:
        for sg in cp.subgroups:
            budgets[sg.server] -= sg.cores

    if policy == "lemur":
        _maximize_marginal(placements, topology, packet_bits, budgets)
    elif policy == "by_index":
        _pump_by_index(placements, topology, packet_bits, budgets)
    else:
        raise PlacementError(f"unknown core allocation policy {policy!r}")

    _refresh_estimates(placements, topology, packet_bits)
    return AllocationResult(placements=placements, feasible=True)


def _check_tmin(placements: List[ChainPlacement], topology: Topology,
                packet_bits: int) -> AllocationResult:
    for cp in placements:
        if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
            return AllocationResult(
                placements=placements, feasible=False,
                reason=(
                    f"chain {cp.name}: {cp.estimated_rate:.0f} Mbps < t_min "
                    f"without core scaling"
                ),
            )
    return AllocationResult(placements=placements, feasible=True)


def _maximize_marginal(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int, budgets: Dict[str, int]) -> None:
    """Spend spare cores on the (chain, subgroup) with the best rate gain.

    The chain rate is concave in its core count (min over subgroups of a
    linear function), so greedy marginal-gain selection is optimal for the
    capped-sum objective before link constraints; the LP then trims rates
    the NICs cannot carry.
    """
    while True:
        best_gain = 0.0
        best: Optional[Tuple[ChainPlacement, Subgroup]] = None
        for cp in placements:
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            before = min(cp.estimated_rate, _rate_cap(cp, topology))
            sg.cores += 1
            after = min(
                estimate_chain_rate(cp, topology, packet_bits),
                _rate_cap(cp, topology),
            )
            sg.cores -= 1
            gain = after - before
            if gain > best_gain + 1e-9:
                best_gain = gain
                best = (cp, sg)
        if best is None:
            return
        cp, sg = best
        _grant_core(cp, sg, budgets)
        cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


def _distribute_evenly(placements: List[ChainPlacement], topology: Topology,
                       packet_bits: int, budgets: Dict[str, int]) -> None:
    """Round-robin spare cores across chains (HW Preferred's policy)."""
    while True:
        granted = False
        for cp in placements:
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                continue
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)
            granted = True
        if not granted:
            return


def _pump_by_index(placements: List[ChainPlacement], topology: Topology,
                   packet_bits: int, budgets: Dict[str, int]) -> None:
    """Greedy's policy: saturate chains to t_max in index order (§5.1)."""
    for cp in placements:
        while cp.estimated_rate < _rate_cap(cp, topology):
            sg = _bottleneck_subgroup(cp, topology, packet_bits, budgets)
            if sg is None:
                break
            _grant_core(cp, sg, budgets)
            cp.estimated_rate = estimate_chain_rate(cp, topology, packet_bits)


def allocate_exhaustive(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
    max_combinations: int = 200_000,
) -> Tuple[AllocationResult, RateSolution]:
    """Enumerate all feasible integer core allocations; pick the LP-best.

    Exponential — used by the brute-force placer and as a test oracle. Only
    replicable subgroups vary; the others stay at one core.
    """
    budgets = _server_budgets(topology)
    all_subgroups: List[Subgroup] = [
        sg for cp in placements for sg in cp.subgroups
    ]
    for sg in all_subgroups:
        sg.cores = 1
    base_usage: Dict[str, int] = {}
    for sg in all_subgroups:
        base_usage[sg.server] = base_usage.get(sg.server, 0) + 1
    for server, used in base_usage.items():
        if used > budgets.get(server, 0):
            return (
                AllocationResult(placements=placements, feasible=False,
                                 reason="not enough cores for subgroups"),
                RateSolution(feasible=False, reason="core floor exceeded"),
            )

    variable = [sg for sg in all_subgroups if sg.replicable]
    spare = {
        server: budgets.get(server, 0) - base_usage.get(server, 0)
        for server in budgets
    }
    options: List[List[int]] = []
    for sg in variable:
        max_extra = spare.get(sg.server, 0)
        options.append(list(range(0, max_extra + 1)))

    total = 1
    for opts in options:
        total *= len(opts)
        if total > max_combinations:
            raise PlacementError(
                f"exhaustive core allocation too large (> {max_combinations})"
            )

    best_solution = RateSolution(feasible=False, reason="no allocation tried")
    best_alloc: Optional[List[int]] = None
    for combo in itertools.product(*options) if options else [()]:
        usage = dict(base_usage)
        valid = True
        for sg, extra in zip(variable, combo):
            usage[sg.server] = usage.get(sg.server, 0) + extra
            if usage[sg.server] > budgets.get(sg.server, 0):
                valid = False
                break
        if not valid:
            continue
        for sg, extra in zip(variable, combo):
            sg.cores = 1 + extra
        _refresh_estimates(placements, topology, packet_bits)
        solution = solve_rates(placements, topology)
        if solution.feasible and (
            not best_solution.feasible
            or solution.objective_mbps > best_solution.objective_mbps + 1e-9
        ):
            best_solution = solution
            best_alloc = list(combo)

    if best_alloc is None:
        return (
            AllocationResult(placements=placements, feasible=False,
                             reason=best_solution.reason),
            best_solution,
        )
    for sg, extra in zip(variable, best_alloc):
        sg.cores = 1 + extra
    _refresh_estimates(placements, topology, packet_bits)
    return AllocationResult(placements=placements, feasible=True), best_solution
