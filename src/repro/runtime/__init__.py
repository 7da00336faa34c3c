"""Persistent dataplane worker runtime.

One process-wide :class:`WorkerPool` shared by every parallel caller
(traffic shards, experiment sweeps, chaos/lifecycle replicas) through
the one :func:`fan_out` policy. Workers are stateless between tasks: a
task carries what it needs.
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

__all__ = [
    "PoolCall",
    "WorkerPool",
    "default_worker_count",
    "fan_out",
    "get_pool",
    "in_worker",
    "shutdown_pool",
]
