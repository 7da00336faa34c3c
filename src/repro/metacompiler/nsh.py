"""NSH service-path assignment (§4.1).

Lemur tags packets with a Network Service Header: the service path index
(SPI) names a linear NF chain and the service index (SI) sequences NFs
within it. "The meta-compiler's first step, after placement, is to assign
SPI and SI values to nodes in the NF-graph." Branched chains decompose
into one service path per linearized route; shared prefixes receive the
same SI values by construction, and the branch decision selects the SPI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.graph import NFChain
from repro.core.placement import ChainPlacement, NodeAssignment
from repro.exceptions import CompileError

#: SI starts high and decrements along the path (RFC 8300 convention).
INITIAL_SI = 255


@dataclass
class Hop:
    """A maximal run of consecutive same-device NFs along a service path."""

    device: str
    platform: str
    node_ids: List[str] = field(default_factory=list)
    entry_si: int = INITIAL_SI


@dataclass
class ServicePath:
    """One linearized route of a chain with its SPI and hop structure."""

    spi: int
    chain_name: str
    node_ids: List[str] = field(default_factory=list)
    si_of: Dict[str, int] = field(default_factory=dict)
    hops: List[Hop] = field(default_factory=list)
    fraction: float = 1.0

    def hop_after(self, hop_index: int) -> Optional[Hop]:
        if hop_index + 1 < len(self.hops):
            return self.hops[hop_index + 1]
        return None


def assign_service_paths(
    chain_placements: Sequence[ChainPlacement],
    first_spi: int = 1,
) -> List[ServicePath]:
    """Assign SPI/SI across all chains' linearized routes.

    SPIs are globally unique; SI for the node at path position ``k`` is
    ``INITIAL_SI − k``, so shared branch prefixes agree on SI values
    across their sibling paths.
    """
    paths: List[ServicePath] = []
    spi = first_spi
    for cp in chain_placements:
        sg_of = {
            nid: sg.sg_id
            for sg in cp.subgroups for nid in sg.node_ids
        }
        for linear in cp.chain.graph.linearize():
            if len(linear.node_ids) > INITIAL_SI:
                raise CompileError(
                    f"chain {cp.name}: path of {len(linear.node_ids)} NFs "
                    f"exceeds the 8-bit service index space"
                )
            path = ServicePath(
                spi=spi,
                chain_name=cp.name,
                node_ids=list(linear.node_ids),
                fraction=linear.fraction,
            )
            spi += 1
            for index, nid in enumerate(linear.node_ids):
                path.si_of[nid] = INITIAL_SI - index
            path.hops = _hops_for(path, cp.assignment, sg_of)
            paths.append(path)
    return paths


def _hops_for(
    path: ServicePath,
    assignment: Dict[str, NodeAssignment],
    sg_of: Dict[str, str],
) -> List[Hop]:
    """Group consecutive same-device nodes into hops.

    Server hops additionally split at run-to-completion subgroup
    boundaries: a path through a merge node stays on the server but enters
    a new subgroup, which needs its own demux entry (its own SI).
    """
    hops: List[Hop] = []
    last_sg: Optional[str] = None
    for nid in path.node_ids:
        assign = assignment[nid]
        sg_id = sg_of.get(nid)
        same_hop = (
            hops
            and hops[-1].device == assign.device
            and (sg_id is None or sg_id == last_sg)
        )
        if same_hop:
            hops[-1].node_ids.append(nid)
        else:
            hops.append(
                Hop(
                    device=assign.device,
                    platform=assign.platform.value,
                    node_ids=[nid],
                    entry_si=path.si_of[nid],
                )
            )
        last_sg = sg_id
    return hops
