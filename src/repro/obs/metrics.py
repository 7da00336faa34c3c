"""Core metric types: counters, histograms, timers, and their registry.

Design goals (the ISSUE's "near-zero overhead when disabled"):

* **Enabled path**: instruments are plain objects with ``__slots__``; a
  ``Counter.inc`` is one attribute add, a ``Histogram.observe`` a handful
  of comparisons. Hot loops fetch instruments once and keep references.
* **Disabled path**: :meth:`MetricsRegistry.counter` (et al.) hand back
  shared null singletons whose record methods are empty — call sites need
  no ``if enabled`` branches and pay only a no-op method call.

Instruments are identified by ``(name, labels)``; asking the registry for
the same pair twice returns the same object, so concurrent layers (placer,
meta-compiler, dataplane) naturally aggregate into one surface.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

LabelKey = Tuple[Tuple[str, str], ...]

#: retained samples per histogram; beyond this, count/sum/min/max stay
#: exact but quantiles reflect the first SAMPLE_CAP observations.
SAMPLE_CAP = 4096


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def quantiles(samples, qs) -> List[float]:
    """Linearly interpolated q-quantiles (each 0..1) of a sample sequence,
    all from one sort.

    Implements ``numpy.quantile``'s default "linear" method: sort, locate
    the virtual index ``q * (n - 1)``, interpolate between the flanking
    order statistics. Empty input yields 0.0 for every ``q``.
    """
    for q in qs:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    last = len(ordered) - 1
    if last < 0:
        return [0.0 for _ in qs]
    out = []
    for q in qs:
        virtual = q * last
        lo = int(virtual)
        frac = virtual - lo
        out.append(float(ordered[lo] * (1.0 - frac)
                         + ordered[min(lo + 1, last)] * frac))
    return out


def quantile(samples, q: float) -> float:
    """One :func:`quantiles` value."""
    return quantiles(samples, (q,))[0]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """A value that can move both ways (e.g. degraded-mode flags).

    Unlike a :class:`Counter`, merging worker state takes the incoming
    value as-is (last write wins) — a gauge states *current* condition,
    not accumulated volume.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """Streaming distribution summary with bounded sample retention."""

    __slots__ = ("name", "labels", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: retained observations as C doubles — an ``int`` observation
        #: comes back as a ``float``; a checkpoint pickles one buffer
        #: per histogram instead of one object per sample.
        self._samples = array("d")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < SAMPLE_CAP:
            self._samples.append(value)

    def observe_many(self, values) -> None:
        """Observe a whole batch, bit-identical to observing serially.

        ``total`` must match a sequential ``total += v`` left fold exactly
        (the batch-equivalence oracle compares registry dumps), so the sum
        uses ``np.add.accumulate`` — a strict left-to-right recurrence —
        rather than ``np.sum``'s pairwise reduction.
        """
        values = list(values) if not hasattr(values, "__len__") else values
        n = len(values)
        if n == 0:
            return
        arr = np.asarray(values, dtype=np.float64)
        self.count += n
        acc = np.empty(n + 1, dtype=np.float64)
        acc[0] = self.total
        acc[1:] = arr
        self.total = float(np.add.accumulate(acc)[-1])
        lo = float(arr.min())
        hi = float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi
        room = SAMPLE_CAP - len(self._samples)
        if room > 0:
            self._samples.frombytes(arr[:room].tobytes())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linearly interpolated q-quantile (0..1) over retained samples.

        Matches ``numpy.quantile``'s default (``method="linear"``):
        the virtual index is ``q * (n - 1)`` and fractional positions
        interpolate between the two neighbouring order statistics. The
        guard's windowed-p99 check uses this, so two samples straddling
        the SLO bound yield the interpolated value rather than snapping
        to either side. Empty histograms yield 0.0.
        """
        return quantile(self._samples, q)

    def summary(self) -> Dict[str, float]:
        p50, p95, p99 = quantiles(self._samples, (0.50, 0.95, 0.99))
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def merge(self, count: int, total: float, minimum: Optional[float],
              maximum: Optional[float], samples: List[float]) -> None:
        """Fold another histogram's state in (worker registry merge-back).

        count/sum/min/max stay exact; retained samples append up to
        SAMPLE_CAP, mirroring :meth:`observe`'s retention policy.
        """
        self.count += count
        self.total += total
        if minimum is not None and (self.min is None or minimum < self.min):
            self.min = minimum
        if maximum is not None and (self.max is None or maximum > self.max):
            self.max = maximum
        room = SAMPLE_CAP - len(self._samples)
        if room > 0:
            self._samples.extend(samples[:room])

    def __repr__(self) -> str:
        return (f"<Histogram {self.name}{dict(self.labels)} "
                f"n={self.count} mean={self.mean:.3g}>")


class Timer:
    """Context manager recording elapsed seconds into a histogram.

    >>> with registry.timer("placer.place.seconds", strategy="lemur"):
    ...     place()                                       # doctest: +SKIP
    """

    __slots__ = ("histogram", "last_seconds", "_start")

    def __init__(self, histogram: Histogram):
        self.histogram = histogram
        self.last_seconds: float = 0.0
        self._start: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.last_seconds = time.perf_counter() - self._start
        self.histogram.observe(self.last_seconds)


class _NullCounter:
    __slots__ = ()
    name = "null"
    labels: LabelKey = ()
    value = 0

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"
    labels: LabelKey = ()
    value = 0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "null"
    labels: LabelKey = ()
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def merge(self, count, total, minimum, maximum, samples) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class _NullTimer:
    __slots__ = ()
    last_seconds = 0.0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()
NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Holds every instrument; the uniform observation surface.

    A disabled registry returns null instruments from every getter, so
    instrumented code runs with near-zero overhead. Toggling ``enabled``
    affects *subsequent* getter calls — call sites that cached a null
    instrument keep it, which is exactly the cheap behaviour wanted for
    long-lived hot paths.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- instrument getters -----------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        return counter

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1])
        return gauge

    def histogram(self, name: str, **labels) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(name, key[1])
        return histogram

    def timer(self, name: str, **labels) -> Timer:
        if not self.enabled:
            return NULL_TIMER  # type: ignore[return-value]
        return Timer(self.histogram(name, **labels))

    # -- introspection ------------------------------------------------------

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def counter_value(self, name: str, **labels) -> float:
        """Read a counter without creating it (0 if absent)."""
        entry = self._counters.get((name, _label_key(labels)))
        return entry.value if entry is not None else 0

    def gauge_value(self, name: str, **labels) -> float:
        """Read a gauge without creating it (0 if absent)."""
        entry = self._gauges.get((name, _label_key(labels)))
        return entry.value if entry is not None else 0

    def drop_series(self, **labels) -> None:
        """Forget every instrument carrying all of ``labels`` (a departed
        chain's ``chain=<name>`` series). Whoever cached one of them must
        forget it too, or it keeps counting into an orphan."""
        wanted = set(_label_key(labels))
        for table in (self._counters, self._gauges, self._histograms):
            for key in [key for key in table if wanted.issubset(key[1])]:
                del table[key]

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def dump_state(self) -> dict:
        """Serializable full state (including histogram samples).

        Unlike :meth:`snapshot` — a reporting summary — this is lossless
        enough to reconstruct instruments elsewhere: sweep workers dump
        their per-process registries and the parent folds them back in
        with :meth:`merge_state`. Deterministically ordered.
        """
        return {
            "counters": [
                [c.name, list(c.labels), c.value]
                for c in sorted(self._counters.values(),
                                key=lambda c: (c.name, c.labels))
            ],
            "gauges": [
                [g.name, list(g.labels), g.value]
                for g in sorted(self._gauges.values(),
                                key=lambda g: (g.name, g.labels))
            ],
            "histograms": [
                [h.name, list(h.labels), h.count, h.total, h.min, h.max,
                 h._samples.tolist()]
                for h in sorted(self._histograms.values(),
                                key=lambda h: (h.name, h.labels))
            ],
        }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add; histograms merge exactly (count/sum/min/max) with
        sample retention capped as usual. No-op instruments are skipped,
        and a disabled registry ignores everything.
        """
        for name, labels, value in state.get("counters", ()):
            if value:
                self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in state.get("gauges", ()):
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, count, total, mn, mx, samples in \
                state.get("histograms", ()):
            if count:
                self.histogram(name, **dict(labels)).merge(
                    count, total, mn, mx, samples
                )

    def snapshot(self) -> dict:
        """Plain-dict dump of every instrument (the export input)."""
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in sorted(self._counters.values(),
                                key=lambda c: (c.name, c.labels))
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in sorted(self._gauges.values(),
                                key=lambda g: (g.name, g.labels))
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), **h.summary()}
                for h in sorted(self._histograms.values(),
                                key=lambda h: (h.name, h.labels))
            ],
        }
