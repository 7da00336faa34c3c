"""Persistent dataplane worker runtime.

One process-wide :class:`WorkerPool` shared by every parallel caller
(traffic shards, experiment sweeps, chaos/lifecycle replicas, per-rack
solves), with worker-side warm-rack caching keyed by artifact fingerprint
and zero-copy shared-memory transport for columnar payloads.
"""

from repro.runtime.pool import (
    PoolCall,
    WorkerPool,
    default_worker_count,
    fan_out,
    get_pool,
    in_worker,
    shutdown_pool,
)
from repro.runtime.rackcache import (
    ArtifactBundle,
    PooledShardTask,
    StaleArtifactsError,
    bundle_fingerprint,
    rack_for,
    run_traffic_shard,
)
from repro.runtime.shm import ShmArrays

__all__ = [
    "ArtifactBundle",
    "PoolCall",
    "PooledShardTask",
    "ShmArrays",
    "StaleArtifactsError",
    "WorkerPool",
    "bundle_fingerprint",
    "default_worker_count",
    "fan_out",
    "get_pool",
    "in_worker",
    "rack_for",
    "run_traffic_shard",
    "shutdown_pool",
]
