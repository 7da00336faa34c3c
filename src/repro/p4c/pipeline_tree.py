"""NF-DAG → pipeline-tree conversion (§A.2.2).

A P4 pipeline must be a tree traversed once, but NF chains are DAGs with
branching and merging points. The meta-compiler:

* concatenates sequential switch NFs into *P4 subgroups* (saving NSH
  updates and simplifying control flow);
* at a **branching node**, emits a traffic-splitting table and generates
  each branch under a condition check — introducing only the necessary
  dependencies so parallel branches can share stages;
* at a **merging node**, detaches the node and re-attaches it to its direct
  predecessors' common ancestor, at the same level as the ancestor's other
  children; preorder traversal visits all non-merging children first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.chain.graph import NFGraph


@dataclass
class SubgroupNode:
    """A P4 subgroup: a maximal run of sequential switch-placed NFs."""

    sg_id: str
    nf_node_ids: List[str] = field(default_factory=list)

    def __hash__(self) -> int:
        return hash(self.sg_id)


@dataclass
class SubgroupDAG:
    """DAG over P4 subgroups, preserving the chain's branch structure."""

    nodes: Dict[str, SubgroupNode] = field(default_factory=dict)
    edges: Set[Tuple[str, str]] = field(default_factory=set)

    def successors(self, sg_id: str) -> List[str]:
        return sorted(b for (a, b) in self.edges if a == sg_id)

    def predecessors(self, sg_id: str) -> List[str]:
        return sorted(a for (a, b) in self.edges if b == sg_id)

    def roots(self) -> List[str]:
        targets = {b for (_a, b) in self.edges}
        return sorted(sg for sg in self.nodes if sg not in targets)

    def branching_nodes(self) -> List[str]:
        return [sg for sg in self.nodes if len(self.successors(sg)) > 1]

    def merging_nodes(self) -> List[str]:
        return [sg for sg in self.nodes if len(self.predecessors(sg)) > 1]

    def topological_order(self) -> List[str]:
        in_degree = {sg: 0 for sg in self.nodes}
        for _a, b in self.edges:
            in_degree[b] += 1
        ready = sorted(sg for sg, deg in in_degree.items() if deg == 0)
        order: List[str] = []
        while ready:
            sg = ready.pop(0)
            order.append(sg)
            for succ in self.successors(sg):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(order) != len(self.nodes):
            raise GraphError("subgroup DAG has a cycle")
        return order


def build_subgroup_dag(graph: NFGraph, switch_node_ids: Sequence[str]
                       ) -> SubgroupDAG:
    """Concatenate sequential switch-placed NFs into P4 subgroups.

    Two adjacent switch NFs join one subgroup iff the edge between them is
    the only edge at both endpoints (no branch or merge in between) —
    §A.2.2's pre-processing step. NFs placed off-switch are skipped; their
    neighbours connect transitively (the off-switch excursion is a bounce
    handled by routing, not by the P4 pipeline).
    """
    switch_set = set(switch_node_ids)
    order = [nid for nid in graph.topological_order() if nid in switch_set]
    dag = SubgroupDAG()
    assignment: Dict[str, str] = {}
    counter = 0

    for nid in order:
        preds = [p for p in graph.predecessors(nid) if p in switch_set]
        joinable = (
            len(preds) == 1
            and graph.is_sole_edge(preds[0], nid)
            and preds[0] in assignment
        )
        if joinable:
            sg_id = assignment[preds[0]]
            dag.nodes[sg_id].nf_node_ids.append(nid)
            assignment[nid] = sg_id
        else:
            sg_id = f"{graph.name}.sg{counter}"
            counter += 1
            dag.nodes[sg_id] = SubgroupNode(sg_id=sg_id, nf_node_ids=[nid])
            assignment[nid] = sg_id

    # Edges between subgroups: follow graph edges, skipping off-switch
    # nodes transitively.
    def switch_successors(nid: str) -> List[str]:
        out: List[str] = []
        stack = graph.successors(nid)
        seen = set()
        while stack:
            nxt = stack.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt in switch_set:
                out.append(nxt)
            else:
                stack.extend(graph.successors(nxt))
        return out

    for nid in order:
        for succ in switch_successors(nid):
            a, b = assignment[nid], assignment[succ]
            if a != b:
                dag.edges.add((a, b))
    return dag


@dataclass
class TreeNode:
    """A node of the generated pipeline tree."""

    subgroup: SubgroupNode
    children: List["TreeNode"] = field(default_factory=list)
    is_merge: bool = False

    def preorder(self) -> List["TreeNode"]:
        """Preorder traversal, non-merging children before merging ones —
        the visit order §A.2.2 requires for code generation."""
        out: List[TreeNode] = [self]
        ordered = sorted(self.children, key=lambda c: c.is_merge)
        for child in ordered:
            out.extend(child.preorder())
        return out


def dag_to_tree(dag: SubgroupDAG) -> Optional[TreeNode]:
    """Convert a subgroup DAG into the pipeline tree (§A.2.2).

    Merging nodes are detached and re-attached as children of their direct
    predecessors' common ancestor ("that ancestor node has just the right
    scope to ensure that all branches can reach the merging node").
    """
    if not dag.nodes:
        return None
    roots = dag.roots()
    virtual_root: Optional[str] = None
    if len(roots) != 1:
        # A chain that starts off-switch may enter the switch at several
        # points (e.g. a server NF branching into switch NFs). The steering
        # table is the real root of the P4 program; model it as a virtual
        # empty subgroup so the tree stays well-formed.
        virtual_root = "__virtual_root__"
        dag = SubgroupDAG(nodes=dict(dag.nodes), edges=set(dag.edges))
        dag.nodes[virtual_root] = SubgroupNode(sg_id=virtual_root)
        for root in roots:
            dag.edges.add((virtual_root, root))
        roots = [virtual_root]

    # parent map under construction; merges processed in topological order
    # so every predecessor already has a unique parent chain.
    parent: Dict[str, Optional[str]] = {roots[0]: None}
    merge_flag: Dict[str, bool] = {sg: False for sg in dag.nodes}

    for sg in dag.topological_order():
        preds = dag.predecessors(sg)
        if len(preds) <= 1:
            if preds:
                parent[sg] = preds[0]
            continue
        merge_flag[sg] = True
        parent[sg] = _common_ancestor(preds, parent)

    nodes = {
        sg: TreeNode(subgroup=dag.nodes[sg], is_merge=merge_flag[sg])
        for sg in dag.nodes
    }
    root: Optional[TreeNode] = None
    for sg, par in parent.items():
        if par is None:
            root = nodes[sg]
        else:
            nodes[par].children.append(nodes[sg])
    if root is None:
        raise GraphError("pipeline tree lost its root")
    return root


def _common_ancestor(preds: Sequence[str], parent: Dict[str, Optional[str]]
                     ) -> str:
    """Deepest node on every predecessor's path to the root."""

    def path_to_root(sg: str) -> List[str]:
        path = [sg]
        while parent.get(path[-1]) is not None:
            path.append(parent[path[-1]])  # type: ignore[arg-type]
        return path

    paths = [path_to_root(p) for p in preds]
    common = set(paths[0])
    for path in paths[1:]:
        common &= set(path)
    if not common:
        raise GraphError(f"no common ancestor for merge predecessors {preds}")
    # the first common node along any predecessor's upward path is deepest
    for sg in paths[0]:
        if sg in common:
            return sg
    raise GraphError("unreachable")  # pragma: no cover
