"""Placement memoization (the sweep engine's warm path).

The evaluation grid — Figure 2 panels, ablations, reserve re-solves,
failure replans — repeatedly solves placement problems over near-identical
inputs, and the online admission core re-asks a problem whenever a
rejected request is retried. This module memoizes
:class:`~repro.core.placement.Placement` results keyed by a *fingerprint*
of the full problem statement: chains (graphs, params, SLOs), topology
state (devices, reserved cores, failed devices), profile database
(including injected error), strategy name, and packet size. Any input
that can change the answer is part of the key, so a hit is always safe to
reuse.

Keys are taken in one walk over the inputs (:func:`placement_fingerprint`)
that writes :func:`repro.chain.digest.encode`'s text encoding of every
public value straight into a hasher; each chain's graph contributes its
memoized :func:`~repro.chain.digest.graph_digest`, so a command re-hashes
only the graph it introduced plus the small SLO / topology / profile
state.

Entries are stored as one compressed ``pickle.dumps`` blob each and every
hit is a fresh ``pickle.loads``: callers may freely mutate a returned placement
(rate re-splits, core rebalancing) without corrupting the cache, cached
entries never alias the solver's working state, and a serve checkpoint
copies the blobs as opaque bytes instead of re-walking every placement.
A checkpoint is only ever read back by the code that wrote it
(:func:`repro.serve.journal.code_stamp`), so a cache always holds the
entry shape this module writes.

A process-wide default cache backs the sweep engine; tests swap it with
:func:`scoped_cache`. Forked sweep workers inherit the parent's populated
cache for free, so warm parallel runs hit too.
"""

from __future__ import annotations

import pickle
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chain.digest import encode, sha256_hex
from repro.core.placement import Placement
from repro.obs import get_registry

#: Default retention bound; the Fig-2 grid is ~200 cells, so 1024 keeps
#: several full evaluation runs warm while bounding memory.
DEFAULT_MAX_ENTRIES = 1024


def placement_fingerprint(
    chains: Sequence,
    topology,
    profiles,
    strategy: str,
    packet_bits: int,
    extra: Tuple = (),
) -> str:
    """Key of one placement problem (sha256 hex digest).

    Two problems get the same key exactly when every public value of
    their inputs encodes identically. ``extra`` admits solver knobs
    beyond the standard five inputs (e.g. the Placer's rate objective)
    without widening the signature.
    """
    with get_registry().timer("placement_cache.fingerprint.seconds"):
        pieces = ["placement/v2"]
        for part in (list(chains), topology, profiles, str(strategy),
                     int(packet_bits), extra):
            pieces.append(";")
            encode(part, pieces)
        return sha256_hex(pieces)


def warm_start_key(base: Placement) -> str:
    """Digest of a placement's decided pattern + cores (sha256 hex).

    An incremental solve's answer depends on which assignments it pins, so
    the warm-start base joins the fingerprint via this key. Only the
    *decisions* (chain name, NF→device assignment, per-subgroup cores)
    matter; rates and derived estimates are recomputed and deliberately
    excluded, keeping the key stable across LP re-splits.
    """
    pieces: List[str] = []
    for cp in sorted(base.chains, key=lambda cp: cp.name):
        encode(cp.name, pieces)
        encode(cp.assignment, pieces)
        encode(sorted((sg.sg_id, sg.server, sg.cores)
                       for sg in cp.subgroups), pieces)
    return sha256_hex(pieces)


class PlacementCache:
    """LRU memo of fingerprint -> pickled Placement; every hit unpickles
    a fresh copy."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 enabled: bool = True):
        self.max_entries = max_entries
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Placement]:
        """A fresh copy of the cached placement, or None (counts
        hit/miss)."""
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        registry = get_registry()
        if entry is None:
            self.misses += 1
            registry.counter("placement_cache.lookups", result="miss").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        registry.counter("placement_cache.lookups", result="hit").inc()
        return pickle.loads(zlib.decompress(entry))

    def put(self, key: str, placement: Placement) -> None:
        if not self.enabled:
            return
        # level 1: a placement pickle is mostly repeated class and field
        # names, so the cheapest setting already shrinks it ~2.5x
        self._entries[key] = zlib.compress(
            pickle.dumps(placement, pickle.HIGHEST_PROTOCOL), 1)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            get_registry().counter("placement_cache.evictions").inc()

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def __repr__(self) -> str:
        return (f"<PlacementCache {len(self._entries)} entries, "
                f"{self.hits} hits / {self.misses} misses>")


_cache = PlacementCache()


def get_cache() -> PlacementCache:
    """The process-wide default placement cache."""
    return _cache


def set_cache(cache: Optional[PlacementCache] = None) -> PlacementCache:
    """Install (and return) a new default cache; None means a fresh one."""
    global _cache
    _cache = cache if cache is not None else PlacementCache()
    return _cache


@contextmanager
def scoped_cache(
    cache: Optional[PlacementCache] = None,
) -> Iterator[PlacementCache]:
    """Temporarily swap the default cache (test/benchmark isolation)."""
    global _cache
    previous = _cache
    _cache = cache if cache is not None else PlacementCache()
    try:
        yield _cache
    finally:
        _cache = previous
