"""Top-level Placer API (§3).

:class:`Placer` bundles the topology, profile database, and configuration;
:meth:`Placer.solve` takes a :class:`PlacementRequest` (strategy, failover
reserve, failed devices, optional warm-start placement) and returns a
:class:`PlacementReport` (placement, wall-clock seconds, solve mode).
Extensions from the paper's discussion section are provided:
failure replanning (§7) and precomputed placements for time-varying SLOs
(§7).

``solve`` is the only placement entry point. A request carrying
``base_placement`` takes the *incremental* path: chains already present in
the base keep their NF→device assignments and core allocations (their
estimates are merely refreshed, so SLO changes are picked up), only the
delta chains are placed — against the residual core capacity — and the
rate LP is re-solved over the combined chain set.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.chain.slo import SLO
from repro.core.ablations import no_core_allocation_place, no_profiling_place
from repro.core.baselines import (
    greedy_place,
    hw_preferred_place,
    min_bounce_place,
    sw_preferred_place,
)
from repro.core.bruteforce import brute_force_place
from repro.core.heuristic import heuristic_place
from repro.core.placement import ChainPlacement, Placement
from repro.exceptions import PlacementError
from repro.hw.spec import topology_for
from repro.hw.topology import Topology
from repro.obs import get_registry
from repro.profiles.defaults import ProfileDatabase, default_profiles


#: placement objectives a request may select (see :class:`PlacementRequest`).
PLACEMENT_OBJECTIVES = ("throughput", "tail_latency")


@dataclass
class PlacerConfig:
    """Knobs for the Placer.

    ``rate_objective`` selects how the rate LP splits burst headroom:
    ``marginal`` (the paper's revenue objective) or ``max_min``
    (progressive-filling fairness — §2 footnote 2's future-work item).
    ``objective`` is the default placement objective (overridable per
    request): ``throughput`` is the paper's maximize-marginal-rate goal;
    ``tail_latency`` additionally caps per-device compute utilization at
    ``tail_utilization_cap`` so no placed core runs hot enough for the
    M/M/1 queueing wait to blow the chain's ``d_max`` tail SLO.
    """

    packet_bytes: int = 1500
    strategy: str = "lemur"
    rate_objective: str = "marginal"
    objective: str = "throughput"
    #: per-device utilization ceiling under the ``tail_latency`` objective
    #: (ρ = 0.7 ⇒ M/M/1 wait factor ρ/(1−ρ) ≈ 2.33× service time).
    tail_utilization_cap: float = 0.7

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


#: strategy name -> placement function
_STRATEGIES: Dict[str, Callable[..., Placement]] = {
    "lemur": heuristic_place,
    "optimal": brute_force_place,
    "hw-preferred": hw_preferred_place,
    "sw-preferred": sw_preferred_place,
    "min-bounce": min_bounce_place,
    "greedy": greedy_place,
    "no-profiling": no_profiling_place,
    "no-core-allocation": no_core_allocation_place,
}


def available_strategies() -> List[str]:
    return sorted(_STRATEGIES)


@functools.lru_cache(maxsize=None)
def _takes_context(fn: Callable[..., Placement]) -> bool:
    """Does this strategy compile its candidates against a pinned switch
    program (``context_pairs``)? A constant of the function, so it is
    inspected once per process, not once per solve."""
    return "context_pairs" in inspect.signature(fn).parameters


@dataclass(frozen=True)
class MultiRackOptions:
    """Hierarchical-solve options a multi-rack request carries.

    ``rack_pins`` forces chains onto named racks
    (``(("chain", "rack"), ...)``); ``ingress`` overrides the fabric's
    ingress rack for latency budgeting. No caller in the package sets
    either: every solve it makes is a fresh one from the fabric's own
    ingress, and only direct :meth:`PlacementRequest.multi_rack` callers
    pin.
    """

    rack_pins: Tuple[Tuple[str, str], ...] = ()
    ingress: Optional[str] = None

    def pins(self) -> Dict[str, str]:
        return dict(self.rack_pins)


@dataclass
class PlacementRequest:
    """One placement problem, fully stated.

    Flag combinations (validated at construction):

    ==================  =====================================================
    field               meaning / constraints
    ==================  =====================================================
    ``chains``          the chain set to place (with SLOs attached)
    ``strategy``        overrides the Placer's configured strategy; must
                        name a registered strategy
    ``reserve_cores``   per-server failover head-room (§7); ``>= 0``;
                        **mutually exclusive** with ``base_placement``
                        (a warm start inherits the base's capacity picture)
    ``failed_devices``  devices out of service for this solve (§7 failure
                        replanning); **mutually exclusive** with
                        ``base_placement`` (replan after failure is a full
                        re-solve — pinned assignments may sit on the dead
                        device)
    ``base_placement``  warm-start: chains present in the base keep their
                        pattern and per-chain analysis, only the delta is
                        placed, and the rate LP re-runs over the combined
                        set (the lifecycle arrival/scale/departure path);
                        must be feasible and an answer of this Placer
                        (same topology and profiles — its analysis is
                        carried forward, not recomputed)
    ``objective``       overrides the config's placement objective
                        (``throughput`` or ``tail_latency``)
    ``multi_rack``      hierarchical-solve options; only
                        :meth:`repro.core.hierarchy.MultiRackPlacer.solve`
                        accepts such a request (a single-rack
                        :class:`Placer` rejects it with a typed error).
                        Build one with :meth:`PlacementRequest.multi_rack`.
    ==================  =====================================================
    """

    chains: Sequence[NFChain]
    strategy: Optional[str] = None
    reserve_cores: int = 0
    failed_devices: Sequence[str] = ()
    base_placement: Optional[Placement] = None
    objective: Optional[str] = None
    multi_rack: Optional[MultiRackOptions] = None

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in _STRATEGIES:
            raise PlacementError(
                f"unknown strategy {self.strategy!r}; "
                f"choose from {available_strategies()}"
            )
        if self.reserve_cores < 0:
            raise PlacementError("reserve_cores must be non-negative")
        if self.objective is not None \
                and self.objective not in PLACEMENT_OBJECTIVES:
            raise PlacementError(
                f"unknown placement objective {self.objective!r}; "
                f"choose from {list(PLACEMENT_OBJECTIVES)}"
            )
        if self.base_placement is not None:
            if self.failed_devices:
                raise PlacementError(
                    "base_placement and failed_devices are mutually "
                    "exclusive: replanning after a failure is a full "
                    "re-solve (pinned assignments may sit on the dead "
                    "device)"
                )
            if self.reserve_cores:
                raise PlacementError(
                    "base_placement and reserve_cores are mutually "
                    "exclusive: a warm start inherits the base's "
                    "capacity picture"
                )
            if not self.base_placement.feasible:
                raise PlacementError(
                    "base_placement must be feasible to warm-start a solve"
                )


def _multi_rack_request(
    cls,
    chains: Sequence[NFChain],
    *,
    rack_pins: Optional[Dict[str, str]] = None,
    ingress: Optional[str] = None,
    strategy: Optional[str] = None,
    objective: Optional[str] = None,
) -> "PlacementRequest":
    """A hierarchical (partition-then-place) request for a
    :class:`~repro.core.hierarchy.MultiRackPlacer`."""
    options = MultiRackOptions(
        rack_pins=tuple(sorted((rack_pins or {}).items())),
        ingress=ingress,
    )
    return cls(
        chains=chains, strategy=strategy, objective=objective,
        multi_rack=options,
    )


# Attached after class creation: the dataclass machinery has already
# captured the ``multi_rack`` *field* default (None) into ``__init__``,
# so the class attribute is free to carry the alternate constructor of
# the same name (``PlacementRequest.multi_rack(chains, ingress="r1")``).
PlacementRequest.multi_rack = classmethod(_multi_rack_request)


@dataclass
class PlacementReport:
    """What one solve produced: result, wall clock, solve mode.

    ``mode`` records which path ran (``full`` or ``incremental``);
    ``pinned_chains``/``placed_chains`` break the incremental path down.
    """

    placement: Placement
    seconds: float
    strategy: str
    mode: str = "full"
    pinned_chains: int = 0
    placed_chains: int = 0


@dataclass
class Placer:
    """The Lemur Placer.

    >>> placer = Placer()
    >>> report = placer.solve(PlacementRequest(chains))   # doctest: +SKIP
    >>> report.placement.feasible                         # doctest: +SKIP
    """

    topology: Topology = field(
        default_factory=lambda: topology_for("paper-testbed").build()
    )
    profiles: ProfileDatabase = field(default_factory=default_profiles)
    config: PlacerConfig = field(default_factory=PlacerConfig)

    def solve(self, request: PlacementRequest) -> PlacementReport:
        """Solve one placement request; the single placement entry point.

        Applies the request's failure/reserve adjustments to the topology
        for the duration of the solve (state added by this call is rolled
        back afterwards), runs the selected strategy — incrementally
        when the request carries a ``base_placement`` — and reports
        wall-clock plus solve mode.
        """
        if request.multi_rack is not None:
            raise PlacementError(
                "this request carries multi_rack options; a single-rack "
                "Placer cannot solve it — use "
                "repro.core.hierarchy.MultiRackPlacer.solve"
            )
        name = request.strategy or self.config.strategy
        fn = _STRATEGIES.get(name)
        if fn is None:
            raise PlacementError(
                f"unknown strategy {name!r}; choose from {available_strategies()}"
            )
        objective = request.objective or self.config.objective
        if objective not in PLACEMENT_OBJECTIVES:
            raise PlacementError(
                f"unknown placement objective {objective!r}; "
                f"choose from {list(PLACEMENT_OBJECTIVES)}"
            )
        utilization_cap = (
            self.config.tail_utilization_cap
            if objective == "tail_latency" else None
        )
        if request.reserve_cores < 0:
            raise PlacementError("reserve_cores must be non-negative")
        base = request.base_placement
        if base is not None and not base.feasible:
            raise PlacementError(
                "base_placement must be feasible to warm-start a solve"
            )
        mode = "incremental" if base is not None else "full"
        registry = get_registry()
        start = time.perf_counter()
        added_failures: List[str] = []
        originals = {s.name: s.reserved_cores for s in self.topology.servers}
        pinned = placed = 0
        try:
            for device in request.failed_devices:
                if device not in self.topology.failed_devices:
                    self.topology.mark_failed(device)
                    added_failures.append(device)
            if request.reserve_cores:
                for server in self.topology.servers:
                    server.reserved_cores = (
                        originals[server.name] + request.reserve_cores
                    )
                    if server.reserved_cores >= server.total_cores:
                        raise PlacementError(
                            f"reserve of {request.reserve_cores} cores leaves "
                            f"server {server.name} with no allocatable cores"
                        )
            with registry.timer("placer.solve.seconds",
                                strategy=name, mode=mode):
                if base is not None:
                    placement, pinned, placed = self._solve_incremental(
                        request, base, name, fn
                    )
                else:
                    with registry.timer("placer.place.seconds",
                                        strategy=name):
                        placement = fn(
                            list(request.chains), self.topology,
                            self.profiles,
                            packet_bits=self.config.packet_bits,
                        )
                if placement.feasible and (
                        self.config.rate_objective != "marginal"
                        or utilization_cap is not None):
                    # Rate assignment is a policy over the decided
                    # configuration: re-split the burst headroom under
                    # the configured objective (and, for tail_latency,
                    # the utilization cap).
                    from repro.core.lp import solve_rates

                    solution = solve_rates(
                        placement.chains, self.topology,
                        objective=self.config.rate_objective,
                        utilization_cap=utilization_cap,
                        packet_bits=self.config.packet_bits,
                    )
                    if solution.feasible:
                        placement.rates = solution.rates
                        placement.objective_mbps = solution.objective_mbps
                    elif utilization_cap is not None:
                        # The t_min floors alone exceed the cap — the
                        # rack cannot hold the tail SLO at any rate
                        # split; surface the LP's binding reason.
                        placement.feasible = False
                        placement.infeasible_reason = solution.reason
                if placement.feasible and utilization_cap is not None:
                    self._enforce_tail_slos(placement)
        finally:
            for device in added_failures:
                self.topology.failed_devices.discard(device)
            for server in self.topology.servers:
                server.reserved_cores = originals[server.name]
        registry.counter(
            "placer.placements", strategy=name,
            feasible=str(placement.feasible).lower(),
        ).inc()
        return PlacementReport(
            placement=placement,
            seconds=time.perf_counter() - start,
            strategy=name,
            mode=mode,
            pinned_chains=pinned,
            placed_chains=placed,
        )

    def _solve_incremental(
        self,
        request: PlacementRequest,
        base: Placement,
        name: str,
        fn: Callable[..., Placement],
    ) -> Tuple[Placement, int, int]:
        """Warm-started solve: pin unchanged chains, place only the delta.

        Chains whose NF graph already appears in ``base`` keep their
        NF→device assignments — the expensive pattern search is skipped for
        them. Cores are *not* pinned: pinned chains are first shrunk to the
        cheapest allocation meeting their t_min (what admission guarantees
        them), the delta chains run the strategy against the remaining
        capacity, and the greedy core allocator then re-spends the spare
        cores over the combined set. Finally the switch program is
        re-validated and the rate LP re-solved — the only global steps
        whose answer a delta can change.
        """
        from repro.core.corealloc import CoreAllocation
        from repro.core.pipeline import switch_fit
        from repro.core.rates import server_core_usage

        packet_bits = self.config.packet_bits
        base_by_name = {cp.name: cp for cp in base.chains}
        pinned_cps: List[ChainPlacement] = []
        delta_chains: List[NFChain] = []
        for chain in request.chains:
            prior = base_by_name.get(chain.name)
            if prior is None or not (
                    chain.graph is prior.chain.graph
                    or chain.graph.same_structure(prior.chain.graph)):
                delta_chains.append(chain)
                continue
            # Same graph, same assignment: the subgroups and every derived
            # quantity (NIC caps, server visits, bounces, latency) are
            # what form_subgroups + analyze_chain would rebuild — none of
            # them reads the SLO, the one thing that may have changed —
            # so carry them forward at one core per subgroup; the floor
            # below re-estimates the rate, which does depend on cores.
            pinned_cps.append(prior.at_one_core(chain))

        def reject(reason: Optional[str],
                   extra: Sequence[ChainPlacement] = ()) -> Tuple[
                       Placement, int, int]:
            return (
                Placement(
                    chains=pinned_cps + list(extra), strategy=name,
                    infeasible_reason=reason,
                ),
                len(pinned_cps), len(delta_chains),
            )

        # Shrink pinned chains to their t_min core floor: admission
        # guarantees existing chains their SLO minimum, not their current
        # burst headroom, so the freed cores are what the delta chains may
        # legitimately claim.
        allocation = CoreAllocation(pinned_cps, self.topology, packet_bits)
        result = allocation.floor()
        if not result.feasible:
            return reject(result.reason)

        delta_cps: List[ChainPlacement] = []
        if delta_chains:
            # The delta strategy sees only the delta chains, so the
            # capacity the pinned chains hold must be withheld from it:
            # server cores via a transient reservation bump, and PISA
            # stages by compiling delta candidates against the pinned
            # switch program (stage usage is not additive — same-class
            # tables share stages — so a numeric budget would be wrong).
            usage = server_core_usage(pinned_cps)
            saved = {s.name: s.reserved_cores for s in self.topology.servers}
            extra: Dict[str, object] = {}
            if pinned_cps and _takes_context(fn):
                extra["context_pairs"] = [
                    (cp.chain.graph, cp.switch_node_ids())
                    for cp in pinned_cps
                ]
            try:
                for server in self.topology.servers:
                    server.reserved_cores = (
                        saved[server.name] + usage.get(server.name, 0)
                    )
                delta = fn(
                    delta_chains, self.topology, self.profiles,
                    packet_bits=packet_bits, **extra,
                )
            finally:
                for server in self.topology.servers:
                    server.reserved_cores = saved[server.name]
            if not delta.feasible:
                return reject(delta.infeasible_reason, delta.chains)
            delta_cps = delta.chains

        by_name = {cp.name: cp for cp in pinned_cps + delta_cps}
        combined = [by_name[chain.name] for chain in request.chains]
        placement = Placement(chains=combined, strategy=name)

        # Re-spend spare cores over the combined set (assignments are
        # already decided; this only moves core counts, like the full
        # pipeline's allocation step). Without a delta chain the combined
        # set is the pinned set, which is floored already.
        if delta_chains:
            allocation = CoreAllocation(combined, self.topology, packet_bits)
            result = allocation.floor()
        if result.feasible:
            result = allocation.spend()
        if not result.feasible:
            placement.infeasible_reason = result.reason
            return placement, len(pinned_cps), len(delta_chains)

        for cp in combined:
            if cp.latency_us > cp.chain.slo.d_max:
                placement.infeasible_reason = (
                    f"chain {cp.name}: latency {cp.latency_us:.1f} µs "
                    f"exceeds d_max {cp.chain.slo.d_max:.1f} µs"
                )
                return placement, len(pinned_cps), len(delta_chains)

        if delta_chains and "context_pairs" in extra:
            # The delta strategy verified its candidates compiled together
            # with the pinned program, so its stage report already covers
            # the combined switch program — no second full compile needed.
            placement.switch_stages_used = delta.switch_stages_used
        else:
            reason, stages_used = switch_fit(combined, self.topology)
            if reason is not None:
                placement.infeasible_reason = reason
                return placement, len(pinned_cps), len(delta_chains)
            if stages_used is not None:
                placement.switch_stages_used = stages_used

        from repro.core.lp import solve_rates

        solution = solve_rates(combined, self.topology)
        if not solution.feasible:
            placement.infeasible_reason = solution.reason
            return placement, len(pinned_cps), len(delta_chains)
        placement.rates = solution.rates
        placement.objective_mbps = solution.objective_mbps
        placement.feasible = True
        return placement, len(pinned_cps), len(delta_chains)

    def _enforce_tail_slos(self, placement: Placement) -> None:
        """Reject chains whose queueing-aware tail latency breaks d_max.

        Runs only under the ``tail_latency`` objective, after rates are
        final: the capped LP rates fix per-device utilization, the M/M/1
        model turns utilization into per-device wait factors, and each
        chain's worst-path latency is re-estimated with those factors —
        the same arithmetic the deployed rack stamps per packet, so a
        chain admitted here holds its p99 under the modelled queueing.
        """
        # Deferred: importing repro.sim at module scope would be circular
        # (repro.sim.traffic imports this module).
        from repro.core.rates import chain_tail_latency_us, device_utilization
        from repro.sim.measurement import QueueingModel

        model = QueueingModel(kind="mm1")
        utilization = device_utilization(
            placement.chains, placement.rates, self.topology,
            self.config.packet_bits,
        )
        factors = {
            device: model.delay_factor(rho)
            for device, rho in utilization.items()
        }
        for cp in placement.chains:
            d_max = cp.chain.slo.d_max
            if math.isinf(d_max):
                continue
            tail = chain_tail_latency_us(
                cp, self.topology, self.profiles, factors
            )
            if tail > d_max:
                placement.feasible = False
                placement.infeasible_reason = (
                    f"chain {cp.name}: queueing-aware tail latency "
                    f"{tail:.1f} µs exceeds d_max {d_max:.1f} µs"
                )
                return

    def precompute_slo_schedule(
        self,
        chains: Sequence[NFChain],
        slo_schedule: Dict[str, List[SLO]],
        strategy: Optional[str] = None,
    ) -> List[Placement]:
        """Precompute placements for time-varying SLOs (§7 Dynamics).

        ``slo_schedule`` maps chain name to one SLO per time slot; every
        chain must provide the same number of slots. Returns one placement
        per slot, ready to be installed on schedule.
        """
        lengths = {len(v) for v in slo_schedule.values()}
        if len(lengths) != 1:
            raise PlacementError(
                "all chains must provide the same number of SLO time slots"
            )
        (n_slots,) = lengths
        placements: List[Placement] = []
        for slot in range(n_slots):
            slot_chains = []
            for chain in chains:
                slos = slo_schedule.get(chain.name)
                if slos is None:
                    raise PlacementError(
                        f"no SLO schedule for chain {chain.name!r}"
                    )
                slot_chains.append(chain.with_slo(slos[slot]))
            placements.append(self.solve(PlacementRequest(
                chains=slot_chains, strategy=strategy,
            )).placement)
        return placements
