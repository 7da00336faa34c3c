"""Spans recorded from outside the program, around the public call into
each layer.

:class:`Tracer` wraps the callables listed in ``adapter.SPAN_TARGETS``
(methods on their class; module-level functions in every ``repro`` module
that imported them by name), keeps the spans in memory, and writes them
at exit as Chrome-trace JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev). A span is ``(name, layer, start, end, parent,
request)``; the request id is the pass / command / event number the
benchmark set before making the call. A layer's *self time* is its spans'
duration minus the part their direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import adapter
from common import median, quantile, write_json


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "request",
                 "child_time")

    def __init__(self, name: str, layer: str, start: float,
                 parent: int, request: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = 0
        #: layer targets the tree no longer has -> reason
        self.absent: Dict[str, str] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(
            Span(name, layer, time.perf_counter(), parent, self.request)
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """The benchmark's own root spans."""
        index = self.begin(name, layer)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def _wrap(self, fn: Callable, layer: str, name) -> Callable:
        begin, end = self.begin, self.end
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(fixed or name(args, kwargs), layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, name, module, attr in adapter.SPAN_TARGETS:
            label = f"{module}.{attr}"
            try:
                owner_path, _, leaf = attr.rpartition(".")
                owner = adapter.resolve(module, owner_path)
                original = adapter.resolve(module, attr)
            except adapter.Absent as exc:
                self.absent[label] = str(exc)
                continue
            if owner_path:
                raw = vars(owner).get(leaf)
                if raw is None:
                    # inherited, not defined here: the defining class is
                    # wrapped under its own entry
                    continue
                wrapper = self._wrap(original, layer, name)
                if isinstance(raw, (classmethod, staticmethod)):
                    # ``original`` is already bound to the class
                    wrapper = staticmethod(wrapper)
                self._patch(owner, leaf, raw, wrapper)
                continue
            wrapper = self._wrap(original, layer, name)
            for holder in adapter.patchable_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapper)

    def _patch(self, holder, key: str, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    # -- analysis -----------------------------------------------------------

    def layer_self_times(self, since: int = 0,
                         until: Optional[int] = None) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans[since:until]:
            totals[span.layer] += span.self_time
        return dict(totals)

    # -- export -------------------------------------------------------------

    def write_chrome_trace(self, path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name, "cat": span.layer, "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": {"id": index, "parent": span.parent,
                         "request": span.request,
                         "self_us": round(span.self_time * 1e6, 3)},
            }
            for index, span in enumerate(self.spans)
        ]
        write_json(path, {"traceEvents": events,
                          "displayTimeUnit": "ms",
                          "absent": self.absent})


#: layers with a ``<layer>.self_share`` per-layer metric; ``untraced`` is
#: the benchmark's own root spans, i.e. time inside no wrapped layer
#: (engine glue, daemon glue, the harness loop), so the shares sum to 1.
LAYERS = (
    "chain", "core.placer", "core.lp", "core.cache", "core.partition",
    "core.hierarchy", "p4c", "metacompiler", "sim.runtime", "sim.columns",
    "sim.traffic", "sim.admission", "sim.interrack", "serve.journal",
    "serve.checkpoint",
)


def _mean_ms(spans: List[Span]) -> Optional[float]:
    if not spans:
        return None
    return sum(s.duration for s in spans) / len(spans) * 1e3


def section_metrics(tracer: Tracer, section: Tuple[int, int], wall: float,
                    operations: int, packets: int) -> Dict[str, float]:
    """Per-layer numbers read from the spans of the traced timed section
    (span indexes ``section``, ``wall`` seconds of root spans,
    ``operations`` passes/commands/events, ``packets`` injected)."""
    low, high = section
    spans = tracer.spans[low:high]
    out: Dict[str, float] = {}
    self_times = tracer.layer_self_times(low, high)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_times.get(layer, 0.0) / wall
    out["untraced.self_share"] = self_times.get("bench", 0.0) / wall

    def named(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def prefixed(prefix: str) -> List[Span]:
        return [s for s in spans if s.name.startswith(prefix)]

    column_runs = named("sim.columns.run")
    if column_runs and packets:
        busy = sum(s.duration for s in column_runs)
        out["sim.columns.run_pps"] = packets / busy
        out["sim.columns.build_us_per_pkt"] = sum(
            s.duration for s in named("sim.columns.build")
        ) / packets * 1e6
    engine_runs = named("sim.traffic.run") + named("sim.traffic.replay")
    if engine_runs:
        out["sim.traffic.engine_overhead_share"] = (
            sum(s.self_time for s in engine_runs)
            / sum(s.duration for s in engine_runs)
        )
    for action in ("arrive", "scale", "depart"):
        durations = [
            s.duration * 1e3
            for s in named(f"sim.admission.process.{action}")
        ]
        if durations:
            stem = f"sim.admission.process_ms.{action}"
            out[f"{stem}.p50"] = quantile(durations, 0.50)
            out[f"{stem}.p95"] = quantile(durations, 0.95)
    if operations:
        phases = named("sim.admission.run_phase")
        if phases:
            out["sim.admission.run_phase_ms"] = (
                sum(s.duration for s in phases) / operations * 1e3
            )
    for metric, name in (
        ("sim.admission.digest_ms", "sim.admission.digest"),
        ("core.placer.incremental_ms", "core.placer.incremental"),
        ("core.cache.fingerprint_ms", "core.cache.fingerprint"),
        ("sim.runtime.redeploy_ms", "sim.runtime.redeploy"),
        ("serve.journal.append_ms", "serve.journal.append"),
        ("serve.checkpoint.save_ms", "serve.checkpoint.save"),
    ):
        mean = _mean_ms(named(name))
        if mean is not None:
            out[metric] = mean
    mean = _mean_ms(prefixed("sim.interrack.process."))
    if mean is not None:
        out["sim.interrack.process_ms"] = mean
    return out


def deploy_metrics(tracer: Tracer, section: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer cost of one cold spec -> rack deploy: the median, over the
    traced deploy repeats (one request id each), of that layer's spans."""
    low, high = section
    spans = tracer.spans[low:high]
    requests = sorted({s.request for s in spans})

    def per_deploy(select, value) -> float:
        totals = {request: 0.0 for request in requests}
        for span in spans:
            if select(span):
                totals[span.request] += value(span)
        return median(totals.values())

    def duration_ms(name: str) -> float:
        return per_deploy(lambda s: s.name == name,
                          lambda s: s.duration * 1e3)

    def outermost(span: Span) -> bool:
        # a p4c span nested in another p4c span is already counted
        return span.parent < 0 or tracer.spans[span.parent].layer != "p4c"

    return {
        "chain.parse_ms": duration_ms("chain.parse"),
        "core.placer.solve_ms": duration_ms("core.placer.solve"),
        "core.lp.solve_ms": duration_ms("core.lp.solve"),
        "core.lp.solves": per_deploy(
            lambda s: s.name == "core.lp.solve", lambda s: 1.0),
        "core.partition.partition_ms":
            duration_ms("core.partition.partition"),
        "core.hierarchy.solve_ms": duration_ms("core.hierarchy.solve"),
        "p4c.compile_ms": per_deploy(
            lambda s: s.layer == "p4c" and outermost(s),
            lambda s: s.duration * 1e3),
        "metacompiler.compile_ms": per_deploy(
            lambda s: s.name == "metacompiler.compile",
            lambda s: s.self_time * 1e3),
        "sim.runtime.deploy_ms": duration_ms("sim.runtime.deploy"),
    }


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty wrapped call costs (for the record only)."""
    tracer = Tracer()
    traced = tracer._wrap(lambda: None, "bench", "noop")
    started = time.perf_counter()
    for _ in range(samples):
        traced()
    return (time.perf_counter() - started) / samples
