"""Canonical content digests of chains (what memo keys are built from).

:func:`encode` walks a value built from the model types — dataclasses,
dicts, sets, sequences, enums, :class:`~repro.chain.graph.NFGraph` — and
writes an unambiguous text encoding of every public value; two values
encode identically exactly when they are interchangeable as solver or
compiler input. The walk of one chain's graph, by far the largest part of
any key, is memoized *on the graph* (:func:`graph_digest`): graphs are
shared by ``with_slo`` copies and survive across admission commands, so a
command re-hashes only the graph it introduced.
``NFGraph.add_node``/``add_edge`` (the only mutators) drop the memo. The
walk is spelled out for the graph's own fields, with each frozen
vocabulary entry's encoding memoized by value; it writes exactly what
the generic walk writes, so the digest is the generic walk's.

:func:`body_digest` is the same walk with the chain's name left out and
its node ids made relative (``n<k>``, the part after ``<name>.``): two
chains that differ only in name share it. It is memoized on the graph
too.

The PISA compiler (:mod:`repro.p4c.compiler`) keys a chain's lowered
fragment on its graph digest, and the body template that fragment is
renamed from on its body digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Dict, List, Optional, Tuple

from repro.chain.graph import NFGraph
from repro.chain.vocabulary import NFInfo
from repro.exceptions import GraphError

_SCALARS = (bool, int, float, str, bytes)

#: :func:`encode` of each vocabulary entry a graph has carried, keyed by
#: value: entries are frozen and shared by every node of their class
#: (copies arrive by pickle). The key also holds the types of the scalar
#: fields, which could compare equal yet repr apart (``1 == 1.0``).
_INFO_ENCODINGS: Dict[Tuple[object, ...], str] = {}


def encode(obj, out: List[str]) -> None:
    """Append a deterministic, unambiguous text encoding of ``obj``.

    Handles the model types placement inputs are built from: dataclasses
    (field order is declaration order), dicts/sets (sorted), sequences,
    enums, callables (by qualified name), and plain objects (public
    ``__dict__``, sorted). Private attributes are skipped so incidental
    state (e.g. ``NFGraph._next_id``) never perturbs the key. Scalars are
    written as their ``repr``, so ``1``, ``1.0`` and ``True`` stay apart.
    """
    if obj is None or isinstance(obj, _SCALARS):
        out.append(repr(obj))
    elif isinstance(obj, enum.Enum):
        out.append(repr(f"{type(obj).__name__}.{obj.name}"))
    elif isinstance(obj, dict):
        out.append("{")
        for key, value in sorted(obj.items(), key=lambda kv: str(kv[0])):
            out.append(repr(str(key)))
            out.append(":")
            encode(value, out)
            out.append(",")
        out.append("}")
    elif isinstance(obj, (set, frozenset)):
        members = []
        for value in obj:
            member: List[str] = []
            encode(value, member)
            members.append("".join(member))
        out.append("<")
        out.append(",".join(sorted(members)))
        out.append(">")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for value in obj:
            encode(value, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, NFGraph):
        out.append("NFGraph#")
        out.append(graph_digest(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__)
        out.append("(")
        for f in dataclasses.fields(obj):
            out.append(f.name)
            out.append("=")
            encode(getattr(obj, f.name), out)
            out.append(",")
        out.append(")")
    elif callable(obj):
        out.append("fn(")
        out.append(repr(getattr(obj, "__module__", "")))
        out.append(",")
        out.append(repr(getattr(obj, "__qualname__", repr(type(obj)))))
        out.append(")")
    elif getattr(obj, "__dict__", None) is not None:
        out.append(type(obj).__name__)
        encode_public_state(obj, out)
    else:
        out.append("repr(")
        out.append(repr(repr(obj)))
        out.append(")")


def encode_public_state(obj, out: List[str]) -> None:
    encode(
        {k: v for k, v in obj.__dict__.items() if not k.startswith("_")},
        out,
    )


def sha256_hex(pieces: List[str]) -> str:
    return hashlib.sha256("".join(pieces).encode()).hexdigest()


def graph_digest(graph: NFGraph) -> str:
    """Digest of a graph's name, nodes and edges, memoized on the graph
    until its next ``add_node``/``add_edge``."""
    digest = graph._digest
    if digest is None:
        pieces: List[str] = []
        _encode_graph(graph, pieces)
        digest = graph._digest = sha256_hex(pieces)
    return digest


def body_digest(graph: NFGraph) -> str:
    """Digest of a graph's nodes and edges without its name, node ids
    relative to it, memoized on the graph until its next
    ``add_node``/``add_edge``."""
    digest = graph._body_digest
    if digest is None:
        pieces: List[str] = []
        _encode_body(graph, pieces)
        digest = graph._body_digest = sha256_hex(pieces)
    return digest


def _encode_graph(graph: NFGraph, out: List[str]) -> None:
    """What ``encode_public_state(graph, out)`` writes, spelled out for
    the graph's public fields (``edges``, ``name``, ``nodes``: sorted),
    with each node's vocabulary entry from :data:`_INFO_ENCODINGS`."""
    _encode_fields(graph, out, None)


def _encode_body(graph: NFGraph, out: List[str]) -> None:
    """:func:`_encode_graph` without ``name``, and ``<name>.`` cut off
    every node id (all share it, so the sort order is the same)."""
    prefix = f"{graph.name}."
    if not all(nid.startswith(prefix) for nid in graph.nodes):
        raise GraphError(f"{graph.name}: node ids must start with "
                         f"{prefix!r} for a body digest")
    _encode_fields(graph, out, len(prefix))


def _encode_fields(graph: NFGraph, out: List[str],
                   cut: Optional[int]) -> None:
    """The walk of :func:`_encode_graph`; with a ``cut``, that of
    :func:`_encode_body`."""
    start = cut or 0
    out.append("{'edges':[")
    for edge in graph.edges:
        out.append(f"NFEdge(src={edge.src[start:]!r},"
                   f"dst={edge.dst[start:]!r},condition=")
        encode(edge.condition, out)
        out.append(",fraction=")
        encode(edge.fraction, out)
        out.append(",),")
    if cut is None:
        out.append("],'name':")
        encode(graph.name, out)
        out.append(",'nodes':{")
    else:
        out.append("],'nodes':{")
    nodes = graph.nodes
    for node_id in sorted(nodes):
        node = nodes[node_id]
        shown = node_id[start:]
        out.append(f"{shown!r}:NFNode(node_id={shown!r},"
                   f"nf_class={node.nf_class!r},info=")
        out.append(_info_encoding(node.info))
        out.append(",instance_name=")
        encode(node.instance_name, out)
        out.append(",params=")
        encode(node.params, out)
        out.append(",),")
    out.append("},}")


def _info_encoding(info: NFInfo) -> str:
    key = (info, type(info.stateful), type(info.replicable),
           type(info.egress_ratio))
    text = _INFO_ENCODINGS.get(key)
    if text is None:
        pieces: List[str] = []
        encode(info, pieces)
        text = _INFO_ENCODINGS[key] = "".join(pieces)
    return text
