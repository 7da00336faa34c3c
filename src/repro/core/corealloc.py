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

An allocation is two steps, a floor and a spend (:class:`CoreAllocation`;
:func:`allocate_cores` runs both). Every core goes to a chain's
bottleneck subgroup, so an allocation keeps each subgroup's rate at its
current core count and re-evaluates only the subgroup that was just
granted a core: a call costs one rate evaluation per subgroup plus one
per grant, not one chain estimate per chain per grant.

An exhaustive search (:func:`allocate_exhaustive`) exists as a correctness
oracle for tests and the brute-force placer on small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.lp import RateSolution, solve_rates
from repro.core.placement import ChainPlacement, Subgroup
from repro.core.rates import estimate_chain_rate, subgroup_rate_on
from repro.exceptions import PlacementError
from repro.hw.topology import Topology
from repro.units import DEFAULT_PACKET_BITS

#: the policies :func:`allocate_cores` accepts (see the module docstring)
CORE_POLICIES = ("lemur", "even", "by_index", "none")


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


class _ChainRates:
    """One chain during an allocation: each subgroup's rate at its
    current cores, the limits cores do not move, and the bottleneck.

    The estimate is :func:`~repro.core.rates.estimate_chain_rate`'s
    ``min`` over the same floats, and the bottleneck is the first
    subgroup with the strictly smallest rate, as it always was.
    """

    __slots__ = ("cp", "topology", "packet_bits", "rates", "fixed", "cap",
                 "low", "low_rate")

    def __init__(self, cp: ChainPlacement, topology: Topology,
                 packet_bits: int) -> None:
        self.cp = cp
        self.topology = topology
        self.packet_bits = packet_bits
        self.rates = [subgroup_rate_on(sg, topology, packet_bits)
                      for sg in cp.subgroups]
        self.fixed = list(cp.nic_caps.values())
        switch_rate = getattr(topology.switch, "port_rate_mbps", None)
        if switch_rate:
            self.fixed.append(switch_rate)
        self.cap = _rate_cap(cp, topology)
        self._settle()

    def estimate(self, rates: List[float]) -> float:
        limits = rates + self.fixed
        return min(limits) if limits else 0.0

    def _settle(self) -> None:
        low, low_rate = -1, math.inf
        for index, rate in enumerate(self.rates):
            if rate < low_rate:
                low, low_rate = index, rate
        self.low, self.low_rate = low, low_rate
        self.cp.estimated_rate = self.estimate(self.rates)

    def bottleneck(self) -> Optional[Subgroup]:
        """The limiting subgroup, if another core there could raise the
        chain; the caller checks its server's budget."""
        if self.low < 0:
            return None
        sg = self.cp.subgroups[self.low]
        # adding a core is useless if something else caps the chain harder
        if not sg.replicable or self.low_rate >= self.cap:
            return None
        return sg

    def raised(self) -> float:
        """The bottleneck subgroup's rate with one more core."""
        sg = self.cp.subgroups[self.low]
        sg.cores += 1
        rate = subgroup_rate_on(sg, self.topology, self.packet_bits)
        sg.cores -= 1
        return rate

    def grant(self, budgets: Dict[str, int], rate: float) -> None:
        """One core to the bottleneck subgroup, whose rate becomes
        ``rate`` (its :meth:`raised`)."""
        sg = self.cp.subgroups[self.low]
        sg.cores += 1
        budgets[sg.server] -= 1
        self.rates[self.low] = rate
        self._settle()


#: a chain's spend offer: the gain from one more core at its bottleneck,
#: the bottleneck's server, and the bottleneck's rate with that core
_Offer = Tuple[float, str, float]


class CoreAllocation:
    """One allocation of ``placements`` under ``policy``: :meth:`floor`,
    then :meth:`spend` if the floor is feasible.

    The floor gives every subgroup one core and, under ``lemur`` and
    ``by_index``, water-fills bottlenecks until every chain reaches its
    t_min; the spend hands out the spare cores under the policy. Both
    steps work on the same objects, which keep their cores and estimates
    in between, so a caller that needs the floored set (the placer's
    incremental path) can spend on it without flooring twice.
    """

    def __init__(self, placements: List[ChainPlacement], topology: Topology,
                 packet_bits: int = DEFAULT_PACKET_BITS,
                 policy: str = "lemur") -> None:
        if policy not in CORE_POLICIES:
            raise PlacementError(f"unknown core allocation policy {policy!r}")
        self.placements = placements
        self.topology = topology
        self.packet_bits = packet_bits
        self.policy = policy
        self.budgets: Dict[str, int] = {}
        self.chains: List[_ChainRates] = []

    def floor(self) -> AllocationResult:
        minimum = self._one_core_each()
        if not minimum.feasible or self.policy in ("none", "even"):
            return minimum
        return self._meet_tmin()

    def spend(self) -> AllocationResult:
        if self.policy == "lemur":
            self._maximize_marginal()
        elif self.policy == "by_index":
            self._pump_by_index()
        elif self.policy == "even":
            # HW Preferred is *not* SLO-aware: spare cores go round-robin
            # regardless of t_min, so its rate is δ-independent and it
            # fails once a slow chain's even share cannot cover its
            # minimum (§5.2).
            self._round_robin(to_tmin=False)
        if self.policy in ("none", "even"):
            return self._check_tmin()
        return AllocationResult(placements=self.placements, feasible=True)

    def _one_core_each(self) -> AllocationResult:
        budgets = _server_budgets(self.topology)
        for cp in self.placements:
            for sg in cp.subgroups:
                sg.cores = 1
                budgets[sg.server] = budgets.get(sg.server, 0) - 1
        over = {s: b for s, b in budgets.items() if b < 0}
        if over:
            return AllocationResult(
                placements=self.placements, feasible=False,
                reason=f"not enough cores for one per subgroup: deficit {over}",
            )
        self.budgets = budgets
        self.chains = [_ChainRates(cp, self.topology, self.packet_bits)
                       for cp in self.placements]
        return AllocationResult(placements=self.placements, feasible=True)

    def _round_robin(self, to_tmin: bool) -> None:
        """Passes over the chains in order, one core to each chain's
        bottleneck per pass, until a pass grants none. A chain that
        passes up its turn never takes one later: its estimate, its
        bottleneck and that subgroup's rate only change when it gets a
        core, and budgets only shrink."""
        budgets = self.budgets
        pending = self.chains
        while pending:
            granted = []
            for chain in pending:
                if to_tmin and (chain.cp.estimated_rate + 1e-9
                                >= chain.cp.chain.slo.t_min):
                    continue
                sg = chain.bottleneck()
                if sg is None or budgets.get(sg.server, 0) <= 0:
                    continue
                chain.grant(budgets, chain.raised())
                granted.append(chain)
            pending = granted

    def _meet_tmin(self) -> AllocationResult:
        """Water-fill bottleneck subgroups until every chain reaches t_min."""
        self._round_robin(to_tmin=True)
        for cp in self.placements:
            if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
                return AllocationResult(
                    placements=self.placements, feasible=False,
                    reason=(
                        f"chain {cp.name} stuck at {cp.estimated_rate:.0f} "
                        f"Mbps < t_min {cp.chain.slo.t_min:.0f} Mbps"
                    ),
                )
        return AllocationResult(placements=self.placements, feasible=True)

    def _check_tmin(self) -> AllocationResult:
        for cp in self.placements:
            if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
                return AllocationResult(
                    placements=self.placements, feasible=False,
                    reason=(
                        f"chain {cp.name}: {cp.estimated_rate:.0f} Mbps < "
                        f"t_min without core scaling"
                    ),
                )
        return AllocationResult(placements=self.placements, feasible=True)

    def _offer(self, chain: _ChainRates) -> Optional[_Offer]:
        """A chain's offer, or ``None`` if no core can raise it."""
        sg = chain.bottleneck()
        if sg is None:
            return None
        rate = chain.raised()
        rates = list(chain.rates)
        rates[chain.low] = rate
        before = min(chain.cp.estimated_rate, chain.cap)
        after = min(chain.estimate(rates), chain.cap)
        return after - before, sg.server, rate

    def _maximize_marginal(self) -> None:
        """Spend spare cores on the (chain, subgroup) with the best rate gain.

        The chain rate is concave in its core count (min over subgroups of a
        linear function), so greedy marginal-gain selection is optimal for
        the capped-sum objective before link constraints; the LP then trims
        rates the NICs cannot carry. A chain's offer only changes when it
        gets the core, so each chain keeps one; budgets are checked when
        choosing.
        """
        budgets = self.budgets
        offers = [self._offer(chain) for chain in self.chains]
        while True:
            # the first offer that beats the best so far (from 0.0) by
            # more than 1e-9, among those whose server has a core left
            beat = 0.0 + 1e-9
            best: Optional[_Offer] = None
            chosen = -1
            for index, offer in enumerate(offers):
                if offer is not None and offer[0] > beat \
                        and budgets.get(offer[1], 0) > 0:
                    beat = offer[0] + 1e-9
                    best, chosen = offer, index
            if best is None:
                return
            chain = self.chains[chosen]
            chain.grant(budgets, best[2])
            offers[chosen] = self._offer(chain)

    def _pump_by_index(self) -> None:
        """Greedy's policy: saturate chains to t_max in index order (§5.1)."""
        budgets = self.budgets
        for chain in self.chains:
            while chain.cp.estimated_rate < chain.cap:
                sg = chain.bottleneck()
                if sg is None or budgets.get(sg.server, 0) <= 0:
                    break
                chain.grant(budgets, chain.raised())


def allocate_cores(
    placements: List[ChainPlacement],
    topology: Topology,
    packet_bits: int = DEFAULT_PACKET_BITS,
    policy: str = "lemur",
) -> AllocationResult:
    """Full allocation under the selected policy (see module docstring)."""
    allocation = CoreAllocation(placements, topology, packet_bits, policy)
    floor = allocation.floor()
    return allocation.spend() if floor.feasible else floor


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
