"""``repro.obs`` — the uniform observability surface (counters, histograms,
timers) every layer records into: Placer stage timings, meta-compiler
codegen times, and the simulated dataplane's per-device packet/drop/cycle
accounting. Exposed to operators via ``repro stats``.

Usage::

    from repro.obs import get_registry

    reg = get_registry()
    reg.counter("lp.solves", objective="marginal").inc()
    with reg.timer("placer.place.seconds", strategy="lemur"):
        ...

A process-wide default registry backs all instrumentation; tests and the
CLI swap in a fresh one with :func:`set_registry` or :func:`scoped_registry`.
Set ``REPRO_OBS=0`` in the environment to start disabled (instrument getters
then return shared no-op objects, making the overhead a single empty call).
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.export import render_json, render_text
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMER,
    QuantileSketch,
    Timer,
    quantile,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "QuantileSketch",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TIMER",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "with_own_registry",
    "render_json",
    "render_text",
    "quantile",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "1").lower() not in (
        "0", "false", "off", "no",
    )


_registry = MetricsRegistry(enabled=_env_enabled())


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def set_registry(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a new default registry; None means a fresh one."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()
    return _registry


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily swap the default registry (test isolation)."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else MetricsRegistry()
    try:
        yield _registry
    finally:
        _registry = previous


def with_own_registry(method: Callable) -> Callable:
    """Run a method of an object that holds a registry as ``self.obs``
    with that registry as the default one, so the layers it calls
    (placer, LP, compilers — they record into :func:`get_registry`)
    report where the object itself does."""
    @functools.wraps(method)
    def scoped(self, *args, **kwargs):
        with scoped_registry(self.obs):
            return method(self, *args, **kwargs)
    return scoped
