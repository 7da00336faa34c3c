"""Canonical content digests of chains (what memo keys are built from).

:func:`encode` walks a value built from the model types — dataclasses,
dicts, sets, sequences, enums, :class:`~repro.chain.graph.NFGraph` — and
writes an unambiguous text encoding of every public value; two values
encode identically exactly when they are interchangeable as solver or
compiler input. The walk of one chain's graph, by far the largest part of
any key, is memoized *on the graph* (:func:`graph_digest`): graphs are
shared by ``with_slo`` copies and survive across admission commands, so a
command re-hashes only the graph it introduced.
``NFGraph.add_node``/``add_edge`` (the only mutators) drop the memo.

The placement cache (:mod:`repro.core.cache`) keys whole problems on this
encoding; the PISA compiler (:mod:`repro.p4c.compiler`) keys a chain's
lowered fragment on its graph digest.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import List

from repro.chain.graph import NFGraph

_SCALARS = (bool, int, float, str, bytes)


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
        encode_public_state(graph, pieces)
        digest = graph._digest = sha256_hex(pieces)
    return digest
