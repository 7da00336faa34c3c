"""Worker-side caches: artifact bundles and warm racks.

Everything in this module below :func:`bundle_fingerprint` executes inside
a pool worker process (module-level state is per-worker).

**Warm racks** (:func:`rack_for`) are shared, slot-keyed racks for
stateless-per-dispatch callers (traffic shards). A cache hit calls
:meth:`DeployedRack.reset_state`, so every dispatch observes a
just-deployed rack and results stay byte-identical with a serial replay;
a fingerprint change applies :meth:`DeployedRack.redeploy` (per-device
delta) before the reset instead of rebuilding the rack object wholesale.
``runtime.rack_builds{mode=cold|warm|delta}`` counts what happened,
recorded in the dispatch's scoped registry so the parent's merge sees it.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.exceptions import WorkerPoolError
from repro.obs import scoped_registry
from repro.sim.runtime import DeployedRack

#: bounded worker-side caches (racks/bundles are few but heavy).
_MAX_BUNDLES = 8
_MAX_RACKS = 4


class StaleArtifactsError(WorkerPoolError):
    """The worker lacks a fingerprint's payload (restart raced the parent's
    shipped-set bookkeeping); re-dispatch with the payload attached."""


def bundle_fingerprint(payload_bytes: bytes) -> str:
    """Canonical fingerprint of a pickled (topology, artifacts, profiles)
    bundle — the worker cache key and the ship-once protocol token."""
    return hashlib.sha256(payload_bytes).hexdigest()


@dataclass
class ArtifactBundle:
    """A deployable artifact set, shipped by value exactly once per worker.

    ``payload`` is the pickled ``(topology, artifacts, profiles)`` tuple
    (``None`` when the parent believes this worker already caches the
    fingerprint).
    """

    fingerprint: str
    payload: Optional[bytes] = None


# -- worker-side state (per worker process) ---------------------------------

_bundles: "OrderedDict[str, tuple]" = OrderedDict()
_racks: "OrderedDict[tuple, list]" = OrderedDict()


def _trim(cache: OrderedDict, limit: int) -> None:
    while len(cache) > limit:
        cache.popitem(last=False)


def resolve_bundle(bundle: ArtifactBundle) -> tuple:
    """The worker's cached unpickled payload for a fingerprint.

    Traffic bundles are ``(topology, artifacts, profiles, placement)``;
    :func:`rack_for` only touches the leading three elements.
    """
    hit = _bundles.get(bundle.fingerprint)
    if hit is not None:
        _bundles.move_to_end(bundle.fingerprint)
        return hit
    if bundle.payload is None:
        raise StaleArtifactsError(
            f"worker has no artifacts for fingerprint "
            f"{bundle.fingerprint[:12]} (restarted worker?); "
            "re-dispatch with the payload"
        )
    resolved = pickle.loads(bundle.payload)
    _bundles[bundle.fingerprint] = resolved
    _trim(_bundles, _MAX_BUNDLES)
    return resolved


def rack_for(slot: str, bundle: ArtifactBundle, seed: int,
             registry) -> DeployedRack:
    """A deployed rack for ``(slot, seed)``, warm when possible.

    * no cached rack → **cold**: deploy from the (cached or shipped)
      artifact bundle;
    * cached rack, same fingerprint → **warm**: reset to just-deployed
      state (fresh NF/RNG state, fresh instruments on ``registry``);
    * cached rack, different fingerprint → **delta**: per-device
      :meth:`~repro.sim.runtime.DeployedRack.redeploy` against the new
      artifacts, then the same reset — the stale rack is never reused
      as-is.
    """
    key = (slot, seed)
    entry = _racks.get(key)
    if entry is None:
        topology, artifacts, profiles = resolve_bundle(bundle)[:3]
        rack = DeployedRack(topology, artifacts, profiles, seed=seed,
                            registry=registry)
        mode = "cold"
        _racks[key] = [bundle.fingerprint, rack]
    else:
        _racks.move_to_end(key)
        if entry[0] == bundle.fingerprint:
            rack = entry[1]
            rack.reset_state(registry=registry)
            mode = "warm"
        else:
            artifacts = resolve_bundle(bundle)[1]
            rack = entry[1]
            rack.redeploy(artifacts)
            rack.reset_state(registry=registry)
            entry[0] = bundle.fingerprint
            mode = "delta"
    _trim(_racks, _MAX_RACKS)
    registry.counter("runtime.rack_builds", mode=mode).inc()
    return rack


# ---------------------------------------------------------------------------
# pooled traffic shards
# ---------------------------------------------------------------------------


@dataclass
class PooledShardTask:
    """One worker's share of a pooled sharded replay."""

    shard_index: int
    chain_names: List[str]
    packets_per_chain: int
    #: carries the placement as its fourth payload element, so per-phase
    #: tasks ship only the fingerprint plus a few scalars.
    bundle: ArtifactBundle
    seed: int
    flows_per_chain: int
    batch_size: int
    vectorized: bool
    #: optional shared-memory descriptor carrying the flow-signature
    #: schedule column (key ``"sig"``) every chain replays.
    sig_shm: Optional[object] = None
    #: queueing-delay model the warm rack stamps (``none`` or ``mm1``).
    queueing: str = "none"


def run_traffic_shard(task: PooledShardTask) -> Tuple[int, list, dict, float]:
    """Pool entry point: replay this shard's chains on a warm rack.

    Ships back ``(shard index, chain rows, registry dump, replay wall)``
    so the parent merges observability state in shard-index order and
    nothing recorded in a worker is lost to process isolation.
    """
    import time

    from repro.sim.traffic import TrafficEngine, configure_rack_queueing

    sig_schedule = None
    handle = None
    if task.sig_shm is not None:
        arrays, handle = task.sig_shm.attach()
        sig_schedule = arrays.get("sig")
    try:
        with scoped_registry() as registry:
            placement = resolve_bundle(task.bundle)[3]
            rack = rack_for("traffic", task.bundle, task.seed, registry)
            # reset_state cleared any prior queueing; re-derive it from
            # this dispatch's placement so warm racks match cold ones.
            configure_rack_queueing(rack, placement, task.queueing)
            engine = TrafficEngine(
                rack, placement,
                flows_per_chain=task.flows_per_chain,
                batch_size=task.batch_size,
                vectorized=task.vectorized,
            )
            started = time.perf_counter()
            rows = [
                engine._run_chain(cp, task.packets_per_chain,
                                  sig_schedule=sig_schedule)
                for cp in placement.chains
                if cp.name in task.chain_names
            ]
            wall = time.perf_counter() - started
            state = registry.dump_state()
    finally:
        if task.sig_shm is not None:
            task.sig_shm.detach(handle)
    return task.shard_index, rows, state, wall


__all__ = [
    "ArtifactBundle",
    "PooledShardTask",
    "StaleArtifactsError",
    "bundle_fingerprint",
    "rack_for",
    "resolve_bundle",
    "run_traffic_shard",
]
