"""Shared placement pipeline: patterns → subgroups → cores → LP → checks.

Every placement scheme (Lemur's heuristic, Optimal, the baselines, the
ablations) funnels through :func:`build_placement`, which performs the
common finishing steps of §3.2:

1. form run-to-completion subgroups from the pattern;
2. rebalance subgroups across servers (multi-server topologies);
3. derive per-chain caps, visits, bounces and latency;
4. allocate cores under the scheme's policy;
5. filter on latency SLOs;
6. verify the PISA stage budget (or the OpenFlow fixed table order);
7. solve the rate LP and report aggregate marginal throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.core.corealloc import allocate_cores
from repro.core.lp import solve_rates
from repro.core.placement import ChainPlacement, NodeAssignment, Placement
from repro.core.rates import analyze_chain
from repro.core.subgroups import form_subgroups
from repro.exceptions import P4CompileError
from repro.hw.openflow import OpenFlowSwitchModel
from repro.hw.platform import Platform
from repro.hw.topology import Topology
from repro.p4c.compiler import PISACompiler
from repro.profiles.defaults import ProfileDatabase
from repro.units import DEFAULT_PACKET_BITS


class ChainAnalyses:
    """Each chain's subgroups and analysis, computed once per (chain,
    assignment).

    A placement scheme forms subgroups and analyzes a chain for every
    candidate it scores, and its candidates share most of their
    per-chain assignments. One instance belongs to one call of a scheme
    and is handed explicitly to each step that needs an analysis: it
    keys by the chain's position in that call's chain list plus the
    assignment's items in their order, and dies with the call.

    :meth:`shared` returns the one cached :class:`ChainPlacement`, at one
    core per subgroup, for reading only; a step that changes cores takes
    a copy (:meth:`ChainPlacement.at_one_core`).
    """

    def __init__(
        self,
        chains: Sequence[NFChain],
        topology: Topology,
        profiles: ProfileDatabase,
        packet_bits: int = DEFAULT_PACKET_BITS,
    ) -> None:
        self.chains = list(chains)
        self.topology = topology
        self.profiles = profiles
        self.packet_bits = packet_bits
        self._memo: Dict[tuple, ChainPlacement] = {}

    def shared(
        self, index: int, assignment: Dict[str, NodeAssignment]
    ) -> ChainPlacement:
        """The analysis of chain ``index`` under ``assignment``; do not
        change it."""
        key = (index, tuple(assignment.items()))
        cp = self._memo.get(key)
        if cp is None:
            chain = self.chains[index]
            subgroups = form_subgroups(chain, assignment, self.profiles)
            cp = analyze_chain(chain, assignment, subgroups, self.topology,
                               self.profiles, self.packet_bits)
            self._memo[key] = cp
        return cp


def rebalance_servers(
    chains: Sequence[NFChain],
    assignments: List[Dict[str, NodeAssignment]],
    topology: Topology,
    profiles: ProfileDatabase,
    analyses: Optional[ChainAnalyses] = None,
) -> List[Dict[str, NodeAssignment]]:
    """Spread subgroups across servers in multi-server topologies.

    Patterns are enumerated against a canonical server; here whole
    subgroups migrate to the server with the most free cores (largest
    subgroup first), which both respects per-server budgets and gives
    replicable subgroups headroom — "two subgroups in an NF chain may be
    placed on different servers" (§3.2).
    """
    servers = [
        s for s in topology.servers if s.name not in topology.failed_devices
    ]
    if len(servers) <= 1:
        return assignments

    analyses = analyses or ChainAnalyses(chains, topology, profiles)
    all_subgroups = []
    for index, assignment in enumerate(assignments):
        for sg in analyses.shared(index, assignment).subgroups:
            all_subgroups.append((assignment, sg))
    all_subgroups.sort(key=lambda item: -item[1].cycles)

    free = {s.name: s.allocatable_cores for s in servers}
    for assignment, sg in all_subgroups:
        target = max(free, key=lambda name: free[name])
        free[target] -= 1
        for nid in sg.node_ids:
            assignment[nid] = NodeAssignment(Platform.SERVER, target)
    return assignments


def build_placement(
    chains: Sequence[NFChain],
    assignments: List[Dict[str, NodeAssignment]],
    topology: Topology,
    profiles: ProfileDatabase,
    packet_bits: int = DEFAULT_PACKET_BITS,
    core_policy: str = "lemur",
    compiler: Optional[PISACompiler] = None,
    check_stages: bool = True,
    strategy: str = "lemur",
    analyses: Optional[ChainAnalyses] = None,
) -> Placement:
    """Finish a pattern choice into a full (possibly infeasible) placement.

    ``analyses`` is the calling scheme's :class:`ChainAnalyses` over
    ``chains``, when it scores several candidates; by default the call
    makes its own.
    """
    analyses = analyses or ChainAnalyses(
        chains, topology, profiles, packet_bits
    )
    assignments = rebalance_servers(
        chains, [dict(a) for a in assignments], topology, profiles,
        analyses,
    )

    # copies: core allocation changes their subgroups' cores
    chain_placements: List[ChainPlacement] = [
        analyses.shared(index, assignment).at_one_core()
        for index, assignment in enumerate(assignments)
    ]

    placement = Placement(chains=chain_placements, strategy=strategy)

    allocation = allocate_cores(
        chain_placements, topology, packet_bits, policy=core_policy
    )
    if not allocation.feasible:
        placement.infeasible_reason = allocation.reason
        return placement

    for cp in chain_placements:
        if cp.latency_us > cp.chain.slo.d_max:
            placement.infeasible_reason = (
                f"chain {cp.name}: latency {cp.latency_us:.1f} µs exceeds "
                f"d_max {cp.chain.slo.d_max:.1f} µs"
            )
            return placement

    if check_stages:
        reason, stages_used = switch_fit(chain_placements, topology, compiler)
        if reason is not None:
            placement.infeasible_reason = reason
            return placement
        if stages_used is not None:
            placement.switch_stages_used = stages_used

    solution = solve_rates(chain_placements, topology)
    if not solution.feasible:
        placement.infeasible_reason = solution.reason
        return placement

    placement.rates = solution.rates
    placement.objective_mbps = solution.objective_mbps
    placement.feasible = True
    return placement


def rescore_placement(
    decided: Placement,
    chains: Sequence[NFChain],
    topology: Topology,
    profiles: ProfileDatabase,
    packet_bits: int = DEFAULT_PACKET_BITS,
    strategy: Optional[str] = None,
) -> Placement:
    """Re-evaluate a decided placement under a different profile database.

    Keeps the pattern *and* core allocation fixed (they are the decisions
    under test) and recomputes estimates, SLO satisfaction, and the rate
    LP with ``profiles``. Used by the No-Profiling ablation (§5.3) and the
    profiling-error sensitivity experiment (§5.2): decisions made with
    wrong profiles are scored as the real testbed would.
    """
    from repro.core.rates import estimate_chain_rate

    rebuilt: List[ChainPlacement] = []
    for chain, decided_cp in zip(chains, decided.chains):
        subgroups = form_subgroups(chain, decided_cp.assignment, profiles)
        core_map = {sg.sg_id: sg.cores for sg in decided_cp.subgroups}
        for sg in subgroups:
            sg.cores = core_map.get(sg.sg_id, 1)
        rebuilt.append(
            analyze_chain(chain, decided_cp.assignment, subgroups,
                          topology, profiles, packet_bits)
        )

    out = Placement(chains=rebuilt, strategy=strategy or decided.strategy)
    for cp in rebuilt:
        if cp.estimated_rate + 1e-9 < cp.chain.slo.t_min:
            out.infeasible_reason = (
                f"chain {cp.name}: decided configuration achieves "
                f"{cp.estimated_rate:.0f} Mbps < t_min "
                f"{cp.chain.slo.t_min:.0f} Mbps under true profiles"
            )
            return out
        if cp.latency_us > cp.chain.slo.d_max:
            out.infeasible_reason = (
                f"chain {cp.name}: latency {cp.latency_us:.1f} µs > d_max"
            )
            return out
    solution = solve_rates(rebuilt, topology)
    out.feasible = solution.feasible
    out.rates = solution.rates
    out.objective_mbps = solution.objective_mbps
    out.infeasible_reason = solution.reason
    return out


def verify_switch_fit(
    chain_placements: Sequence[ChainPlacement],
    topology: Topology,
    compiler: Optional[PISACompiler] = None,
) -> Optional[str]:
    """Stage/table-order feasibility on the ToR. Returns a reason or None."""
    return switch_fit(chain_placements, topology, compiler)[0]


def switch_fit(
    chain_placements: Sequence[ChainPlacement],
    topology: Topology,
    compiler: Optional[PISACompiler] = None,
) -> Tuple[Optional[str], Optional[int]]:
    """Stage/table-order feasibility plus PISA stage usage, one compile.

    Returns ``(infeasibility reason or None, stage count or None)`` so
    callers that report stage usage (the incremental solve path) do not
    pay a second full pipeline compile after verification.
    """
    switch = topology.switch
    if switch.platform is Platform.PISA:
        compiler = compiler or PISACompiler(switch)  # type: ignore[arg-type]
        pairs = [
            (cp.chain.graph, cp.switch_node_ids()) for cp in chain_placements
        ]
        try:
            result = compiler.compile(pairs)
        except P4CompileError as exc:
            return f"P4 compilation rejected the placement: {exc}", None
        if not result.fits:
            return (
                f"pipeline needs {result.stage_count} stages "
                f"> {compiler.switch.num_stages} available"
            ), result.stage_count
        return None, result.stage_count
    if isinstance(switch, OpenFlowSwitchModel):
        used_vids = 0
        for cp in chain_placements:
            of_nodes = [
                nid for nid in cp.chain.graph.topological_order()
                if cp.assignment[nid].platform is Platform.OPENFLOW
            ]
            names = [cp.chain.graph.nodes[nid].nf_class for nid in of_nodes]
            if not switch.supports_order(names):
                return (
                    f"chain {cp.name}: OpenFlow fixed table order cannot "
                    f"execute {names}"
                ), None
            # each chain consumes one VLAN-encoded service path per bounce+1
            used_vids += cp.bounces + 1
        if used_vids >= 2 ** switch.vid_bits:
            return "VLAN vid space exhausted for SPI/SI encoding", None
        return None, None
    return None, None
