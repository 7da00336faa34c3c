"""NF-graph intermediate representation (§4).

The meta-compiler "parses the NF chain specifications, and develops an
intermediate graph representation of all the NFs. In this NF-graph, nodes are
NFs, links represent data-flows, and each node is associated with attributes
that govern placement". This module lowers the AST into that IR, validates it
against the NF vocabulary, and supports the branch decomposition the Placer
uses ("we decompose such chains into linear chains", §3.2).
"""

from __future__ import annotations

import heapq
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


class _Index:
    """A graph's structure, derived from its edge list in one pass.

    Adjacency, order and the entry/exit/branch/merge sets are built here,
    once per graph version; ``fractions`` (per ``egress_aware`` mode) and
    ``paths`` (the linearization) are filled on first use. ``order`` is
    None when the graph has a cycle.
    """

    __slots__ = ("succ", "pred", "out", "inn", "order", "entries", "exits",
                 "branches", "merges", "fractions", "paths")

    def __init__(self, graph: "NFGraph"):
        nodes = graph.nodes
        self.succ: Dict[str, List[str]] = {nid: [] for nid in nodes}
        self.pred: Dict[str, List[str]] = {nid: [] for nid in nodes}
        self.out: Dict[str, List[NFEdge]] = {nid: [] for nid in nodes}
        self.inn: Dict[str, List[NFEdge]] = {nid: [] for nid in nodes}
        for edge in graph.edges:
            self.succ[edge.src].append(edge.dst)
            self.pred[edge.dst].append(edge.src)
            self.out[edge.src].append(edge)
            self.inn[edge.dst].append(edge)
        self.order = _kahn(self.succ, self.pred)
        self.entries = [nid for nid, preds in self.pred.items() if not preds]
        self.exits = [nid for nid, succs in self.succ.items() if not succs]
        self.branches = [nid for nid, succs in self.succ.items()
                         if len(succs) > 1]
        self.merges = [nid for nid, preds in self.pred.items()
                       if len(preds) > 1]
        self.fractions: Dict[bool, Dict[str, float]] = {}
        self.paths: Optional[List[Tuple[Tuple[str, ...], float]]] = None


def _kahn(succ: Dict[str, List[str]],
          pred: Dict[str, List[str]]) -> Optional[List[str]]:
    """Kahn's algorithm, smallest ready node id first; None on a cycle."""
    in_degree = {nid: len(preds) for nid, preds in pred.items()}
    ready = [nid for nid, deg in in_degree.items() if deg == 0]
    heapq.heapify(ready)
    order: List[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in succ[nid]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                heapq.heappush(ready, nxt)
    return order if len(order) == len(succ) else None


class NFGraph:
    """A validated NF DAG for a single chain."""

    #: Memos of this graph's content digests, written by
    #: :func:`repro.chain.digest.graph_digest` (read by the P4 compile
    #: memo and the meta-compiler's codegen units) and
    #: :func:`repro.chain.digest.body_digest` (read by the P4 compile
    #: memo's body templates). ``_index`` is the :class:`_Index` every
    #: structure query reads, built by the first one. ``add_node`` and
    #: ``add_edge`` drop all three (they are the only mutators: nothing
    #: edits nodes, params or edges after lowering). Class defaults,
    #: because ``__getstate__`` leaves them out of pickles.
    _digest: Optional[str] = None
    _body_digest: Optional[str] = None
    _index: Optional[_Index] = None

    def __init__(self, name: str = "chain"):
        self.name = name
        self.nodes: Dict[str, NFNode] = {}
        self.edges: List[NFEdge] = []
        self._next_id = 0

    def __getstate__(self) -> dict:
        # the memos are cheap to rebuild and would otherwise ride along
        # in every pickled placement
        state = self.__dict__.copy()
        state.pop("_digest", None)
        state.pop("_body_digest", None)
        state.pop("_index", None)
        return state

    # -- construction -------------------------------------------------------

    def add_node(self, invocation: NFInvocation, vocabulary: Vocabulary) -> NFNode:
        info = vocabulary.lookup(invocation.nf_class)
        node_id = f"{self.name}.n{self._next_id}"
        self._next_id += 1
        node = NFNode(
            node_id=node_id,
            nf_class=info.name,
            info=info,
            instance_name=invocation.instance_name,
            params=dict(invocation.params),
        )
        self.nodes[node_id] = node
        self._digest = self._body_digest = self._index = None
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
        self._digest = self._body_digest = self._index = None
        return edge

    def renamed(self, name: str) -> "NFGraph":
        """A copy of this graph as chain ``name``: node ids keep their
        number (``<name>.n<k>``), nodes and edges their order, and the
        copy shares the nodes' vocabulary entries, params and edge
        conditions (nothing mutates them)."""
        cut = len(self.name) + 1
        ids = {nid: f"{name}.{nid[cut:]}" for nid in self.nodes}
        graph = NFGraph(name)
        graph.nodes = {
            ids[nid]: NFNode(ids[nid], node.nf_class, node.info,
                             node.instance_name, node.params)
            for nid, node in self.nodes.items()
        }
        graph.edges = [
            NFEdge(ids[edge.src], ids[edge.dst], edge.condition,
                   edge.fraction)
            for edge in self.edges
        ]
        graph._next_id = self._next_id
        return graph

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
    #
    # Every query reads the index and hands back a fresh list or dict:
    # callers are free to mutate what they get.

    def _structure(self) -> _Index:
        index = self._index
        if index is None:
            index = self._index = _Index(self)
        return index

    def successors(self, node_id: str) -> List[str]:
        return list(self._structure().succ.get(node_id, ()))

    def predecessors(self, node_id: str) -> List[str]:
        return list(self._structure().pred.get(node_id, ()))

    def out_edges(self, node_id: str) -> List[NFEdge]:
        return list(self._structure().out.get(node_id, ()))

    def in_edges(self, node_id: str) -> List[NFEdge]:
        return list(self._structure().inn.get(node_id, ()))

    def entry_nodes(self) -> List[str]:
        return list(self._structure().entries)

    def exit_nodes(self) -> List[str]:
        return list(self._structure().exits)

    def branch_nodes(self) -> List[str]:
        """Nodes with >1 successor (traffic splits after them)."""
        return list(self._structure().branches)

    def merge_nodes(self) -> List[str]:
        """Nodes with >1 predecessor (branches rejoin at them)."""
        return list(self._structure().merges)

    def is_branch_or_merge(self, node_id: str) -> bool:
        """Subgroups containing such nodes are never replicated (§3.2)."""
        index = self._structure()
        return (len(index.succ.get(node_id, ())) > 1
                or len(index.pred.get(node_id, ())) > 1)

    def is_sole_edge(self, src: str, dst: str) -> bool:
        """True when ``src -> dst`` is the only edge out of ``src`` and the
        only edge into ``dst``: no branch or merge splits a
        run-to-completion batch (or a P4 subgroup) across it."""
        index = self._structure()
        return index.succ.get(src) == [dst] and index.pred.get(dst) == [src]

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, smallest ready id first; raises
        :class:`GraphError` on cycles."""
        return list(self._order())

    def _order(self) -> List[str]:
        order = self._structure().order
        if order is None:
            raise GraphError(f"{self.name}: NF graph has a cycle")
        return order

    def validate(self) -> None:
        """Structural checks: non-empty, acyclic, single entry."""
        if not self.nodes:
            raise GraphError(f"{self.name}: empty NF graph")
        self._order()
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
        index = self._structure()
        egress_aware = bool(egress_aware)
        fractions = index.fractions.get(egress_aware)
        if fractions is None:
            fractions = {nid: 0.0 for nid in self.nodes}
            for entry in index.entries:
                fractions[entry] = 1.0
            for nid in self._order():
                outgoing = fractions[nid]
                if egress_aware:
                    node = self.nodes[nid]
                    ratio = float(
                        node.params.get("egress_ratio", node.info.egress_ratio)
                    )
                    outgoing *= ratio
                for edge in index.out[nid]:
                    fractions[edge.dst] += outgoing * edge.fraction
            index.fractions[egress_aware] = fractions
        return dict(fractions)

    def linearize(self) -> List[LinearChain]:
        """Decompose the DAG into linear chains with traffic fractions (§3.2).

        'If a chain branches from NF X to two NFs Y and Z, and then merges
        back into an NF W, we decompose these into two chains X->Y->W and
        X->Z->W.'
        """
        index = self._structure()
        if index.paths is None:
            out = index.out
            paths: List[Tuple[Tuple[str, ...], float]] = []

            def walk(node_id: str, path: Tuple[str, ...],
                     fraction: float) -> None:
                path = path + (node_id,)
                edges = out[node_id]
                if not edges:
                    paths.append((path, fraction))
                    return
                for edge in edges:
                    walk(edge.dst, path, fraction * edge.fraction)

            for entry in index.entries:
                walk(entry, (), 1.0)
            index.paths = paths
        return [LinearChain(node_ids=list(path), fraction=fraction)
                for path, fraction in index.paths]

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
        return [self.nodes[nid].nf_class for nid in self._order()]

    def to_dot(self) -> str:
        """Graphviz DOT rendering of the NF graph (for docs/debugging).

        Edge labels carry branch conditions and non-trivial traffic
        fractions; render with ``dot -Tpng``.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;"]
        for nid in self._order():
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
