"""NF-graph intermediate representation (§4).

The meta-compiler "parses the NF chain specifications, and develops an
intermediate graph representation of all the NFs. In this NF-graph, nodes are
NFs, links represent data-flows, and each node is associated with attributes
that govern placement". This module lowers the AST into that IR, validates it
against the NF vocabulary, and supports the branch decomposition the Placer
uses ("we decompose such chains into linear chains", §3.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.chain.ast import (
    BranchSpec,
    ChainSpecAST,
    NFInvocation,
    PipelineSpec,
)
from repro.chain.slo import SLO
from repro.chain.vocabulary import NFInfo, Vocabulary, default_vocabulary
from repro.exceptions import GraphError
from repro.net.flows import TrafficAggregate


@dataclass
class NFNode:
    """A node in the NF-graph: one NF instance."""

    node_id: str
    nf_class: str
    info: NFInfo
    instance_name: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def display_name(self) -> str:
        return self.instance_name or f"{self.nf_class}:{self.node_id}"

    def __hash__(self) -> int:
        return hash(self.node_id)


@dataclass
class NFEdge:
    """A data-flow edge. ``condition`` holds the branch-arm match dict;
    ``fraction`` is the share of the source node's traffic taking this edge."""

    src: str
    dst: str
    condition: Optional[Dict[str, object]] = None
    fraction: float = 1.0


@dataclass
class LinearChain:
    """One source→sink path through the graph with its traffic fraction.

    The Placer enumerates placements over these (§3.2 "Dealing with branches
    in chains"); throughput estimates are later merged at shared nodes.
    """

    node_ids: List[str]
    fraction: float = 1.0


class NFGraph:
    """A validated NF DAG for a single chain."""

    #: Memo of this graph's placement-cache digest, written by
    #: :mod:`repro.core.cache` and dropped by every mutator (``add_node``
    #: and ``add_edge`` are the only ones: nothing edits nodes, params or
    #: edges after lowering). A class default, because ``__getstate__``
    #: leaves it out of pickles.
    _digest: Optional[str] = None

    def __init__(self, name: str = "chain"):
        self.name = name
        self.nodes: Dict[str, NFNode] = {}
        self.edges: List[NFEdge] = []
        self._next_id = itertools.count()

    def __getstate__(self) -> dict:
        # the memo is cheap to rebuild and would otherwise ride along in
        # every pickled placement
        state = self.__dict__.copy()
        state.pop("_digest", None)
        return state

    # -- construction -------------------------------------------------------

    def add_node(self, invocation: NFInvocation, vocabulary: Vocabulary) -> NFNode:
        info = vocabulary.lookup(invocation.nf_class)
        node_id = f"{self.name}.n{next(self._next_id)}"
        node = NFNode(
            node_id=node_id,
            nf_class=info.name,
            info=info,
            instance_name=invocation.instance_name,
            params=dict(invocation.params),
        )
        self.nodes[node_id] = node
        self._digest = None
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        condition: Optional[Dict[str, object]] = None,
        fraction: float = 1.0,
    ) -> NFEdge:
        if src not in self.nodes or dst not in self.nodes:
            raise GraphError(f"edge references unknown node: {src} -> {dst}")
        edge = NFEdge(src=src, dst=dst, condition=condition, fraction=fraction)
        self.edges.append(edge)
        self._digest = None
        return edge

    @classmethod
    def from_pipeline(
        cls,
        pipeline: PipelineSpec,
        name: str = "chain",
        vocabulary: Optional[Vocabulary] = None,
    ) -> "NFGraph":
        """Lower one AST pipeline into an NF-graph."""
        vocabulary = vocabulary or default_vocabulary()
        graph = cls(name=name)
        # frontier: dangling outputs awaiting the next element:
        # (node_id, condition, fraction)
        frontier: List[Tuple[str, Optional[dict], float]] = []
        for item in pipeline.items:
            if isinstance(item, NFInvocation):
                node = graph.add_node(item, vocabulary)
                for src, condition, fraction in frontier:
                    graph.add_edge(src, node.node_id, condition, fraction)
                frontier = [(node.node_id, None, 1.0)]
            elif isinstance(item, BranchSpec):
                if not frontier:
                    raise GraphError(
                        f"{name}: a chain cannot start with a branch block"
                    )
                frontier = graph._lower_branch(item, frontier, vocabulary)
            else:  # pragma: no cover - parser guarantees the item types
                raise GraphError(f"unknown pipeline item {item!r}")
        graph.validate()
        return graph

    def _lower_branch(
        self,
        branch: BranchSpec,
        frontier: List[Tuple[str, Optional[dict], float]],
        vocabulary: Vocabulary,
    ) -> List[Tuple[str, Optional[dict], float]]:
        """Lower a branch block; returns the new frontier."""
        weights = _arm_weights(branch)
        new_frontier: List[Tuple[str, Optional[dict], float]] = []
        for arm, weight in zip(branch.arms, weights):
            if not arm.pipeline.items:
                # passthrough arm: incoming traffic skips to the next element
                for src, upstream_cond, upstream_frac in frontier:
                    condition = arm.condition or upstream_cond
                    new_frontier.append((src, condition, upstream_frac * weight))
                continue
            arm_entry_pending = list(frontier)
            arm_tail: List[Tuple[str, Optional[dict], float]] = []
            for index, item in enumerate(arm.pipeline.items):
                if isinstance(item, NFInvocation):
                    node = self.add_node(item, vocabulary)
                    if index == 0:
                        for src, upstream_cond, upstream_frac in arm_entry_pending:
                            condition = arm.condition or upstream_cond
                            self.add_edge(
                                src, node.node_id, condition, upstream_frac * weight
                            )
                    else:
                        for src, condition, fraction in arm_tail:
                            self.add_edge(src, node.node_id, condition, fraction)
                    arm_tail = [(node.node_id, None, 1.0)]
                elif isinstance(item, BranchSpec):
                    if index == 0:
                        raise GraphError(
                            f"{self.name}: branch arm cannot begin with a nested branch"
                        )
                    arm_tail = self._lower_branch(item, arm_tail, vocabulary)
                else:  # pragma: no cover
                    raise GraphError(f"unknown pipeline item {item!r}")
            new_frontier.extend(arm_tail)
        return new_frontier

    # -- structure queries ---------------------------------------------------

    def successors(self, node_id: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == node_id]

    def predecessors(self, node_id: str) -> List[str]:
        return [e.src for e in self.edges if e.dst == node_id]

    def out_edges(self, node_id: str) -> List[NFEdge]:
        return [e for e in self.edges if e.src == node_id]

    def in_edges(self, node_id: str) -> List[NFEdge]:
        return [e for e in self.edges if e.dst == node_id]

    def entry_nodes(self) -> List[str]:
        targets = {e.dst for e in self.edges}
        return [nid for nid in self.nodes if nid not in targets]

    def exit_nodes(self) -> List[str]:
        sources = {e.src for e in self.edges}
        return [nid for nid in self.nodes if nid not in sources]

    def branch_nodes(self) -> List[str]:
        """Nodes with >1 successor (traffic splits after them)."""
        return [nid for nid in self.nodes if len(self.successors(nid)) > 1]

    def merge_nodes(self) -> List[str]:
        """Nodes with >1 predecessor (branches rejoin at them)."""
        return [nid for nid in self.nodes if len(self.predecessors(nid)) > 1]

    def is_branch_or_merge(self, node_id: str) -> bool:
        """Subgroups containing such nodes are never replicated (§3.2)."""
        return len(self.successors(node_id)) > 1 or len(self.predecessors(node_id)) > 1

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles."""
        in_degree = {nid: 0 for nid in self.nodes}
        for edge in self.edges:
            in_degree[edge.dst] += 1
        ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
        order: List[str] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for succ in self.successors(nid):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.nodes):
            raise GraphError(f"{self.name}: NF graph has a cycle")
        return order

    def validate(self) -> None:
        """Structural checks: non-empty, acyclic, single entry."""
        if not self.nodes:
            raise GraphError(f"{self.name}: empty NF graph")
        self.topological_order()
        entries = self.entry_nodes()
        if len(entries) != 1:
            raise GraphError(
                f"{self.name}: expected exactly one entry NF, found {entries}"
            )
        fractions_ok = all(e.fraction > 0 for e in self.edges)
        if not fractions_ok:
            raise GraphError(f"{self.name}: non-positive edge fraction")

    # -- traffic & linearization ---------------------------------------------

    def node_fractions(self, egress_aware: bool = False) -> Dict[str, float]:
        """Fraction of chain ingress traffic reaching each node.

        With ``egress_aware=True`` an NF's ``egress_ratio`` (< 1 for
        redundancy-eliminating NFs like Dedup, whose "packet egress rate
        is less than its ingress rate", §5.2) attenuates the traffic seen
        by everything downstream. The Placer deliberately ignores this by
        default — assuming full rate downstream is the conservative,
        worst-case choice the paper makes; the flag exposes the §5.2
        future-work refinement for analysis. A per-instance
        ``egress_ratio`` parameter overrides the vocabulary's value.
        """
        fractions = {nid: 0.0 for nid in self.nodes}
        for entry in self.entry_nodes():
            fractions[entry] = 1.0
        for nid in self.topological_order():
            outgoing = fractions[nid]
            if egress_aware:
                node = self.nodes[nid]
                ratio = float(
                    node.params.get("egress_ratio", node.info.egress_ratio)
                )
                outgoing *= ratio
            for edge in self.out_edges(nid):
                fractions[edge.dst] += outgoing * edge.fraction
        return fractions

    def linearize(self) -> List[LinearChain]:
        """Decompose the DAG into linear chains with traffic fractions (§3.2).

        'If a chain branches from NF X to two NFs Y and Z, and then merges
        back into an NF W, we decompose these into two chains X->Y->W and
        X->Z->W.'
        """
        entries = self.entry_nodes()
        chains: List[LinearChain] = []

        def walk(node_id: str, path: List[str], fraction: float) -> None:
            path = path + [node_id]
            out = self.out_edges(node_id)
            if not out:
                chains.append(LinearChain(node_ids=path, fraction=fraction))
                return
            for edge in out:
                walk(edge.dst, path, fraction * edge.fraction)

        for entry in entries:
            walk(entry, [], 1.0)
        return chains

    def same_structure(self, other: "NFGraph") -> bool:
        """Node/edge equality — same NFs, params, and wiring.

        SLOs live on :class:`NFChain`, not here, so a chain whose SLO was
        rescaled still reports the same structure; the Placer's incremental
        path uses this to decide whether an existing chain's NF→device
        assignment can be pinned across a solve.
        """
        if set(self.nodes) != set(other.nodes):
            return False
        for nid, node in self.nodes.items():
            theirs = other.nodes[nid]
            if node.nf_class != theirs.nf_class or node.params != theirs.params:
                return False
        mine = {(e.src, e.dst, repr(e.condition), e.fraction)
                for e in self.edges}
        theirs_edges = {(e.src, e.dst, repr(e.condition), e.fraction)
                        for e in other.edges}
        return mine == theirs_edges

    def nf_multiset(self) -> List[str]:
        """All NF class names in topological order (for reporting)."""
        return [self.nodes[nid].nf_class for nid in self.topological_order()]

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the NF graph (for docs/debugging).

        Edge labels carry branch conditions and non-trivial traffic
        fractions; render with ``dot -Tpng``.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for nid in self.topological_order():
            node = self.nodes[nid]
            shape = ("diamond" if self.is_branch_or_merge(nid)
                     else "box")
            lines.append(
                f'  "{nid}" [label="{node.nf_class}", shape={shape}];'
            )
        for edge in self.edges:
            labels = []
            if edge.condition:
                labels.append(str(edge.condition))
            if edge.fraction != 1.0:
                labels.append(f"{edge.fraction:.2f}")
            label = f' [label="{", ".join(labels)}"]' if labels else ""
            lines.append(f'  "{edge.src}" -> "{edge.dst}"{label};')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<NFGraph {self.name}: {len(self.nodes)} NFs, {len(self.edges)} edges>"


def _arm_weights(branch: BranchSpec) -> List[float]:
    """Resolve arm traffic fractions: explicit weights, remainder split evenly."""
    explicit = [arm.weight for arm in branch.arms]
    assigned = sum(w for w in explicit if w is not None)
    if assigned > 1.0 + 1e-9:
        raise GraphError(f"branch arm weights sum to {assigned} > 1")
    unassigned = [i for i, w in enumerate(explicit) if w is None]
    weights = [w if w is not None else 0.0 for w in explicit]
    if unassigned:
        share = (1.0 - assigned) / len(unassigned)
        if share <= 0:
            raise GraphError("explicit arm weights leave no traffic for other arms")
        for i in unassigned:
            weights[i] = share
    return weights


@dataclass
class NFChain:
    """A deployable chain: NF graph + traffic aggregate + SLO (§2).

    This is the unit the Placer reasons over; a Lemur input is a list of
    these.
    """

    graph: NFGraph
    slo: SLO = field(default_factory=SLO)
    aggregate: TrafficAggregate = field(default_factory=TrafficAggregate)

    @property
    def name(self) -> str:
        return self.graph.name

    def with_slo(self, slo: SLO) -> "NFChain":
        return NFChain(graph=self.graph, slo=slo, aggregate=self.aggregate)


def chains_from_spec(
    text: str,
    slos: Optional[Iterable[SLO]] = None,
    vocabulary: Optional[Vocabulary] = None,
) -> List[NFChain]:
    """Parse a spec file and lower every pipeline into an :class:`NFChain`.

    ``slos`` pairs with pipelines positionally; missing entries default to
    best-effort (bulk) SLOs.
    """
    from repro.chain.parser import parse_spec

    ast = parse_spec(text)
    slo_list = list(slos or [])
    chains: List[NFChain] = []
    for index, pipeline in enumerate(ast.pipelines):
        name = ast.pipeline_names[index] or f"chain{index + 1}"
        graph = NFGraph.from_pipeline(pipeline, name=name, vocabulary=vocabulary)
        slo = slo_list[index] if index < len(slo_list) else SLO()
        chains.append(NFChain(graph=graph, slo=slo))
    return chains


def chains_with_slos(
    spec_text: str,
    slos: Iterable[Tuple[float, ...]],
    *,
    error: type = GraphError,
    vocabulary: Optional[Vocabulary] = None,
) -> List[NFChain]:
    """Parse a spec and attach one positional SLO tuple per chain.

    Each tuple is ``(t_min, t_max)`` or ``(t_min, t_max, d_max)``. The
    count must match the spec's chain count exactly — an experiment that
    silently defaulted a chain to best-effort would report vacuous SLO
    compliance. ``error`` selects the exception type so every experiment
    spec (chaos, lifecycle, traffic, serve) raises in its own family
    while sharing this one validator.
    """
    slo_list = list(slos)
    chains = chains_from_spec(spec_text, vocabulary=vocabulary)
    if len(slo_list) != len(chains):
        raise error(
            f"spec declares {len(chains)} chains but {len(slo_list)} "
            "SLOs were provided"
        )
    out: List[NFChain] = []
    for chain, bounds in zip(chains, slo_list):
        if not 2 <= len(bounds) <= 3:
            raise error(
                "each SLO must be (t_min, t_max) or "
                f"(t_min, t_max, d_max); got {bounds!r}"
            )
        slo = SLO(t_min=bounds[0], t_max=bounds[1]) if len(bounds) == 2 \
            else SLO(t_min=bounds[0], t_max=bounds[1], d_max=bounds[2])
        out.append(chain.with_slo(slo))
    return out
