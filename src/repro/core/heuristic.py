"""Lemur's fast placement heuristic (§3.2 "A Fast, Scalable Heuristic").

Three steps:

1. **Check stage constraints.** Greedily place every NF with a hardware
   implementation on the PISA switch; while the unified pipeline exceeds
   the stage budget, move the *lowest cycle-cost* switch NF to the server
   (a cheap NF is easiest to absorb in software while hardware line-rate is
   preserved for expensive ones). The result is the *baseline placement*;
   later steps only ever remove NFs from the switch, so the stage
   constraint stays satisfied.

2. **Coalesce sub-groups.** Offloading an intermediate switch NF can fuse
   the server subgroups around it, freeing cores. Three placements emerge:
   the baseline, an *aggressive* one (strict + aggressive rules) and a
   *conservative* one (strict + conservative rules).

3. **Maximize marginal throughputs.** For each candidate, allocate cores,
   solve the link-constrained LP, and keep the feasible placement with the
   highest aggregate marginal throughput.

When chains carry delay SLOs, a bounce-minimizing variant is added to the
candidate set, letting the heuristic trade throughput for latency (§5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.core.patterns import node_options, preferred_assignment
from repro.core.pipeline import ChainAnalyses, build_placement
from repro.core.placement import NodeAssignment, Placement
from repro.core.subgroups import (
    coalesced_assignment,
    evaluate_coalesce,
    find_coalesce_candidates,
)
from repro.exceptions import P4CompileError
from repro.hw.platform import Platform
from repro.hw.topology import Topology
from repro.obs import get_registry
from repro.p4c.compiler import ContextCompiler, PISACompiler
from repro.profiles.defaults import ProfileDatabase
from repro.units import DEFAULT_PACKET_BITS

Assignments = List[Dict[str, NodeAssignment]]


def heuristic_place(
    chains: Sequence[NFChain],
    topology: Topology,
    profiles: ProfileDatabase,
    packet_bits: int = DEFAULT_PACKET_BITS,
    core_policy: str = "lemur",
    strategy_name: str = "lemur",
    context_pairs: Optional[Sequence] = None,
) -> Placement:
    """Run the full three-step heuristic and return the best placement.

    Each heuristic stage (stage-constraint baseline, the coalescing
    variants, candidate evaluation) is timed into the observability
    registry under ``placer.stage.seconds{stage=...}`` so `repro stats`
    and the §5.3 scaling benchmarks can see where placement time goes.

    ``context_pairs`` — (graph, switch-node-ids) pairs of chains already
    compiled onto the switch — makes every stage check compile against
    that pinned program, for incremental solves where switch stages are
    shared with chains this call is not placing.
    """
    chains = list(chains)
    analyses = ChainAnalyses(chains, topology, profiles, packet_bits)
    compiler = _compiler_for(topology)
    if compiler is not None and context_pairs:
        compiler = ContextCompiler(compiler.switch, context_pairs)
    registry = get_registry()

    with registry.timer("placer.stage.seconds", stage="stage_constraints"):
        baseline = _stage_constrained_baseline(
            chains, topology, profiles, compiler
        )
    candidates: List[Tuple[str, Assignments]] = [("baseline", baseline)]
    with registry.timer("placer.stage.seconds", stage="coalesce_aggressive"):
        candidates.append((
            "aggressive",
            _coalesce_all(analyses, baseline, rules=("strict", "aggressive")),
        ))
    with registry.timer("placer.stage.seconds", stage="coalesce_conservative"):
        candidates.append((
            "conservative",
            _coalesce_all(analyses, baseline,
                          rules=("strict", "conservative")),
        ))
    if any(cp.slo.d_max != float("inf") for cp in chains):
        with registry.timer("placer.stage.seconds", stage="min_bounce"):
            candidates.append((
                "min-bounce-variant",
                _bounce_reducing_variant(chains, baseline, topology,
                                         profiles),
            ))

    best: Optional[Placement] = None
    evaluated: set = set()
    for label, assignments in candidates:
        key = tuple(
            tuple(sorted((nid, a.platform, a.device) for nid, a in per.items()))
            for per in assignments
        )
        if key in evaluated:
            # coalescing produced the same assignment as an earlier
            # candidate (common for small deltas) — the evaluation, its
            # P4 compile and its rate LP would be identical, so skip it.
            registry.counter("placer.candidates", label=f"{label}_dup").inc()
            continue
        evaluated.add(key)
        with registry.timer("placer.stage.seconds",
                            stage=f"evaluate_{label}"):
            placement = build_placement(
                chains, assignments, topology, profiles, packet_bits,
                core_policy=core_policy, compiler=compiler,
                strategy=strategy_name, analyses=analyses,
            )
        registry.counter("placer.candidates", label=label).inc()
        if placement.feasible and (
            best is None or placement.objective_mbps > best.objective_mbps + 1e-9
        ):
            best = placement
        elif best is None:
            best = placement  # keep an infeasible one for its reason
    assert best is not None
    return best


# -- step 1 -------------------------------------------------------------------

def _stage_constrained_baseline(
    chains: Sequence[NFChain],
    topology: Topology,
    profiles: ProfileDatabase,
    compiler: Optional[PISACompiler],
) -> Assignments:
    """Greedy hardware placement, then evict cheap NFs until stages fit."""
    assignments: Assignments = [
        preferred_assignment(chain, topology, prefer="hw") for chain in chains
    ]
    if compiler is None:
        return assignments

    while True:
        pairs = [
            (chain.graph,
             {nid for nid, a in assignment.items()
              if a.platform is Platform.PISA})
            for chain, assignment in zip(chains, assignments)
        ]
        try:
            if compiler.compile(pairs).fits:
                return assignments
        except P4CompileError:
            pass  # parser conflict etc.: keep evicting

        evicted = _evict_cheapest_switch_nf(
            chains, assignments, topology, profiles
        )
        if not evicted:
            # nothing left to move: return the all-soft placement; the
            # stage check downstream will report the (now unlikely) misfit
            return assignments


def _evict_cheapest_switch_nf(
    chains: Sequence[NFChain],
    assignments: Assignments,
    topology: Topology,
    profiles: ProfileDatabase,
) -> bool:
    """Move the lowest server-cycle-cost switch NF to a software option."""
    best: Optional[Tuple[float, int, str, NodeAssignment]] = None
    for index, (chain, assignment) in enumerate(zip(chains, assignments)):
        for nid, assign in assignment.items():
            if assign.platform is not Platform.PISA:
                continue
            node = chain.graph.nodes[nid]
            fallback = _software_option(chain, nid, topology)
            if fallback is None:
                continue
            cost = profiles.server_cycles(node.nf_class, node.params)
            if best is None or cost < best[0]:
                best = (cost, index, nid, fallback)
    if best is None:
        return False
    _cost, index, nid, fallback = best
    assignments[index][nid] = fallback
    return True


def _software_option(
    chain: NFChain, node_id: str, topology: Topology
) -> Optional[NodeAssignment]:
    for option in node_options(chain, node_id, topology):
        if option.platform in (Platform.SERVER, Platform.SMARTNIC):
            return option
    return None


# -- step 2 -------------------------------------------------------------------

def _coalesce_all(
    analyses: ChainAnalyses,
    baseline: Assignments,
    rules: Tuple[str, ...],
) -> Assignments:
    """Apply the coalescing rules per chain until fixpoint."""
    out: Assignments = []
    topology = analyses.topology
    freq_hz = topology.servers[0].freq_hz if topology.servers else 1.7e9
    for index, (chain, assignment) in enumerate(zip(analyses.chains,
                                                    baseline)):
        assignment = dict(assignment)
        changed = True
        while changed:
            changed = False
            cp = analyses.shared(index, assignment)
            for candidate in find_coalesce_candidates(chain, assignment,
                                                      cp.subgroups):
                if any(
                    evaluate_coalesce(
                        chain, candidate, cp.subgroups, analyses.profiles,
                        freq_hz, analyses.packet_bits, rule,
                        cp.estimated_rate,
                    )
                    for rule in rules
                ):
                    assignment = coalesced_assignment(
                        chain, candidate, assignment
                    )
                    changed = True
                    break
        out.append(assignment)
    return out


# -- latency-driven variant ----------------------------------------------------

def _bounce_reducing_variant(
    chains: Sequence[NFChain],
    baseline: Assignments,
    topology: Topology,
    profiles: ProfileDatabase,
) -> Assignments:
    """Fold switch NFs into the server until each path has one bounce.

    Used when delay SLOs are present: fewer switch↔server excursions
    directly reduce chain latency at the cost of server cycles (§5.3:
    "Lemur is forced to reduce the number of bounces"). Along every
    linearized path, all movable switch NFs strictly between the path's
    first and last server NF move to the server; NFs with no software
    implementation (e.g. IPv4Fwd) stay put.
    """
    out: Assignments = []
    for chain, assignment in zip(chains, baseline):
        assignment = dict(assignment)
        for linear in chain.graph.linearize():
            server_positions = [
                index for index, nid in enumerate(linear.node_ids)
                if assignment[nid].platform is Platform.SERVER
            ]
            if len(server_positions) < 2:
                continue
            first, last = server_positions[0], server_positions[-1]
            for nid in linear.node_ids[first + 1:last]:
                if assignment[nid].platform is not Platform.PISA:
                    continue
                fallback = _software_option(chain, nid, topology)
                if fallback is not None and fallback.platform is Platform.SERVER:
                    assignment[nid] = fallback
        out.append(assignment)
    return out


def _compiler_for(topology: Topology) -> Optional[PISACompiler]:
    if topology.switch.platform is Platform.PISA:
        return PISACompiler(topology.switch)  # type: ignore[arg-type]
    return None
