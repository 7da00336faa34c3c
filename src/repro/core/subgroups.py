"""Subgroup formation and coalescing (§3.2).

Successive server-placed NFs coalesce into *run-to-completion subgroups*
(zero-copy, no scheduling overhead, no cross-core communication). Subgroups
containing a non-replicable NF (NAT, Limiter — Table 3's bold rows) or a
branch/merge node are never replicated across cores.

The heuristic's step 2 explores *coalescing across a switch NF*: moving an
intermediate PISA-placed NF back to the server can fuse the two surrounding
subgroups, freeing a core for other chains. Three rules are implemented:
strict, aggressive, and conservative (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.chain.graph import NFChain, NFGraph
from repro.core.placement import ChainPlacement, NodeAssignment, Subgroup
from repro.hw.platform import Platform
from repro.profiles.defaults import (
    NSH_ENCAP_DECAP_CYCLES,
    ProfileDatabase,
)


def form_subgroups(
    chain: NFChain,
    assignment: Dict[str, NodeAssignment],
    profiles: ProfileDatabase,
) -> List[Subgroup]:
    """Partition server-placed NFs into run-to-completion subgroups.

    Two server NFs share a subgroup iff they are adjacent in the chain, on
    the same server, and the edge between them is the only edge at both
    endpoints (no branch or merge splits a run-to-completion batch).
    Per-subgroup cost weights each member by the fraction of chain ingress
    traffic reaching it and adds the NSH encap/decap overhead once per
    subgroup (§5.3).
    """
    graph = chain.graph
    fractions = graph.node_fractions()
    order = graph.topological_order()
    server_ids = [
        nid for nid in order
        if assignment[nid].platform is Platform.SERVER
    ]
    component: Dict[str, int] = {}
    next_component = 0
    for nid in server_ids:
        preds = [
            p for p in graph.predecessors(nid)
            if p in component and assignment[p].device == assignment[nid].device
        ]
        if len(preds) == 1 and graph.is_sole_edge(preds[0], nid):
            component[nid] = component[preds[0]]
        else:
            component[nid] = next_component
            next_component += 1

    members: Dict[int, List[str]] = {}
    for nid in server_ids:
        members.setdefault(component[nid], []).append(nid)

    subgroups: List[Subgroup] = []
    for comp_id in sorted(members):
        node_ids = members[comp_id]
        cycles = float(NSH_ENCAP_DECAP_CYCLES)
        replicable = True
        for nid in node_ids:
            node = graph.nodes[nid]
            cycles += fractions[nid] * profiles.server_cycles(
                node.nf_class, node.params
            )
            if not node.info.replicable:
                replicable = False
            if graph.is_branch_or_merge(nid):
                replicable = False
        subgroups.append(
            Subgroup(
                sg_id=f"{graph.name}/sg{comp_id}",
                chain_name=graph.name,
                server=assignment[node_ids[0]].device,
                node_ids=tuple(node_ids),
                cycles=cycles,
                replicable=replicable,
            )
        )
    return subgroups


# --------------------------------------------------------------------------
# Coalescing across switch NFs (heuristic step 2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CoalesceCandidate:
    """A switch NF sandwiched between two server subgroups (linearly)."""

    switch_node: str
    before_sg: str
    after_sg: str


def find_coalesce_candidates(
    chain: NFChain,
    assignment: Dict[str, NodeAssignment],
    subgroups: Sequence[Subgroup],
) -> List[CoalesceCandidate]:
    """Switch NFs whose offload to the server would fuse two subgroups.

    The pattern is ``{...A} -> C -> {B...}`` where C is on the PISA switch,
    its sole predecessor ends one server subgroup, and its sole successor
    starts another on the same server.
    """
    graph = chain.graph
    sg_of: Dict[str, Subgroup] = {}
    for sg in subgroups:
        for nid in sg.node_ids:
            sg_of[nid] = sg

    candidates: List[CoalesceCandidate] = []
    for nid, assign in assignment.items():
        if assign.platform is not Platform.PISA:
            continue
        if graph.is_branch_or_merge(nid):
            continue
        preds = graph.predecessors(nid)
        succs = graph.successors(nid)
        if len(preds) != 1 or len(succs) != 1:
            continue
        pred_sg = sg_of.get(preds[0])
        succ_sg = sg_of.get(succs[0])
        if pred_sg is None or succ_sg is None or pred_sg is succ_sg:
            continue
        if pred_sg.server != succ_sg.server:
            continue
        # the boundary nodes must not themselves branch/merge
        if not (graph.is_sole_edge(preds[0], nid)
                and graph.is_sole_edge(nid, succs[0])):
            continue
        candidates.append(
            CoalesceCandidate(
                switch_node=nid,
                before_sg=pred_sg.sg_id,
                after_sg=succ_sg.sg_id,
            )
        )
    return candidates


def coalesced_cycles(
    chain: NFChain,
    candidate: CoalesceCandidate,
    subgroups: Sequence[Subgroup],
    profiles: ProfileDatabase,
) -> float:
    """Per-ingress-packet cycles of the fused subgroup (A + C + B).

    One NSH boundary overhead disappears (two subgroups become one).
    """
    fractions = chain.graph.node_fractions()
    before = _sg_by_id(subgroups, candidate.before_sg)
    after = _sg_by_id(subgroups, candidate.after_sg)
    node = chain.graph.nodes[candidate.switch_node]
    moved = fractions[candidate.switch_node] * profiles.server_cycles(
        node.nf_class, node.params
    )
    return before.cycles + after.cycles + moved - NSH_ENCAP_DECAP_CYCLES


def evaluate_coalesce(
    chain: NFChain,
    candidate: CoalesceCandidate,
    subgroups: Sequence[Subgroup],
    profiles: ProfileDatabase,
    freq_hz: float,
    packet_bits: int,
    rule: str,
    current_bottleneck_mbps: float,
) -> bool:
    """Should this candidate be coalesced under ``rule``?

    * ``strict`` — the fused subgroup on 2 cores beats 1+1 cores on the
      separate subgroups (and the fused subgroup must be replicable).
    * ``aggressive`` — fuse whenever a single core still satisfies t_min
      (may backfire; frees the most cores).
    * ``conservative`` — fuse only if a single fused core does not lower
      the chain's current bottleneck rate.
    """
    before = _sg_by_id(subgroups, candidate.before_sg)
    after = _sg_by_id(subgroups, candidate.after_sg)
    fused_cycles = coalesced_cycles(chain, candidate, subgroups, profiles)
    to_mbps = lambda cores, cycles: cores * freq_hz / cycles * packet_bits / 1e6

    fused_replicable = (
        before.replicable
        and after.replicable
        and chain.graph.nodes[candidate.switch_node].info.replicable
    )

    if rule == "strict":
        if not fused_replicable:
            return False
        separate = min(to_mbps(1, before.cycles), to_mbps(1, after.cycles))
        return to_mbps(2, fused_cycles) > separate
    if rule == "aggressive":
        return to_mbps(1, fused_cycles) >= chain.slo.t_min
    if rule == "conservative":
        return to_mbps(1, fused_cycles) >= current_bottleneck_mbps
    raise ValueError(f"unknown coalescing rule {rule!r}")


def coalesced_assignment(
    chain: NFChain,
    candidate: CoalesceCandidate,
    assignment: Dict[str, NodeAssignment],
) -> Dict[str, NodeAssignment]:
    """``assignment`` with the candidate's switch NF moved to the server
    of the subgroup before it (a new dict, in the same key order)."""
    before_server = None
    for sg_node in chain.graph.predecessors(candidate.switch_node):
        before_server = assignment[sg_node].device
    new_assignment = dict(assignment)
    new_assignment[candidate.switch_node] = NodeAssignment(
        platform=Platform.SERVER, device=before_server or "server0"
    )
    return new_assignment


def _sg_by_id(subgroups: Sequence[Subgroup], sg_id: str) -> Subgroup:
    for sg in subgroups:
        if sg.sg_id == sg_id:
            return sg
    raise KeyError(sg_id)
