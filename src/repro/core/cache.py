"""Placement memoization (the sweep engine's warm path).

The evaluation grid — Figure 2 panels, ablations, the δ sweep — solves
the same placement problems again whenever a figure is re-run in one
process; :mod:`repro.experiments.parallel` is this module's only
user. The online paths (``Placer.solve``, the admission
cores, chaos replans, the serve daemon) do not memoize: their problem —
active chains, running placement, topology state — changes with every
command, and a key never repeated there (0 hits in 656 lookups,
``docs/performance.md``). This module memoizes
:class:`~repro.core.placement.Placement` results keyed by a *fingerprint*
of the full problem statement: chains (graphs, params, SLOs), topology
state (devices, reserved cores, failed devices), profile database
(including injected error), strategy name, and packet size. Any input
that can change the answer is part of the key, so a hit is always safe to
reuse.

Keys are taken in one walk over the inputs (:func:`placement_fingerprint`)
that writes :func:`repro.chain.digest.encode`'s text encoding of every
public value straight into a hasher; each chain's graph contributes its
:func:`~repro.chain.digest.graph_digest`, walked once per graph object.

Entries are stored as one ``pickle.dumps`` blob each and every hit is a
fresh ``pickle.loads``: callers may freely mutate a returned placement
(rate re-splits, core rebalancing) without corrupting the cache, and cached
entries never alias the solver's working state.

One process-wide cache backs the sweep engine; a test or benchmark that
wants a cold solve takes a fresh one with :func:`scoped_cache`. Sweep
workers are forked for one call and read the parent's cache as it is
then; the parent stores what they solved, so warm parallel runs hit as
serial ones do.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

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
    beyond the standard five inputs (e.g. a rate objective) without
    widening the signature.
    """
    with get_registry().timer("placement_cache.fingerprint.seconds"):
        pieces = ["placement/v2"]
        for part in (list(chains), topology, profiles, str(strategy),
                     int(packet_bits), extra):
            pieces.append(";")
            encode(part, pieces)
        return sha256_hex(pieces)


class PlacementCache:
    """LRU memo of fingerprint -> pickled Placement; every hit unpickles
    a fresh copy."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Placement]:
        """A fresh copy of the cached placement, or None (counts
        hit/miss)."""
        entry = self._entries.get(key)
        registry = get_registry()
        if entry is None:
            self.misses += 1
            registry.counter("placement_cache.lookups", result="miss").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        registry.counter("placement_cache.lookups", result="hit").inc()
        return pickle.loads(entry)

    def put(self, key: str, placement: Placement) -> None:
        self._entries[key] = pickle.dumps(
            placement, pickle.HIGHEST_PROTOCOL)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            get_registry().counter("placement_cache.evictions").inc()

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


@contextmanager
def scoped_cache(
    cache: Optional[PlacementCache] = None,
) -> Iterator[PlacementCache]:
    """Temporarily swap the default cache (test/benchmark isolation; a
    fresh one is how a cold sweep is asked for)."""
    global _cache
    previous = _cache
    _cache = cache if cache is not None else PlacementCache()
    try:
        yield _cache
    finally:
        _cache = previous


__all__ = [
    "PlacementCache",
    "get_cache",
    "placement_fingerprint",
    "scoped_cache",
]
