"""Core metric types: counters, histograms, timers, and their registry.

Design goals (the ISSUE's "near-zero overhead when disabled"):

* **Enabled path**: instruments are plain objects with ``__slots__``; a
  ``Counter.inc`` is one attribute add, a ``Histogram.observe`` a handful
  of comparisons and an append. Hot loops fetch instruments once and keep
  references.
* **Disabled path**: :meth:`MetricsRegistry.counter` (et al.) hand back
  shared null singletons whose record methods are empty — call sites need
  no ``if enabled`` branches and pay only a no-op method call.

Instruments are identified by ``(name, labels)``; asking the registry for
the same pair twice returns the same object, so concurrent layers (placer,
meta-compiler, dataplane) naturally aggregate into one surface.

Every quantile the product reports — histogram summaries and the
per-chain ``latency_p50/p95/p99_us`` report columns — comes from one
:class:`QuantileSketch`.
"""

from __future__ import annotations

import struct
import time
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

LabelKey = Tuple[Tuple[str, str], ...]

#: relative-error bound of every :class:`QuantileSketch` estimate.
ALPHA = 0.005

#: buckets per power of two: the fewest (a power of two) whose bucket
#: representative is within ``ALPHA`` — ``1 / (2·128 + 1)`` ≈ 0.39 %.
_PER_OCTAVE = 128
#: a double's int64 bits shifted right by this are its biased exponent
#: and top 7 (``log2(_PER_OCTAVE)``) mantissa bits: the bucket key.
_KEY_SHIFT = 52 - 7

#: most buckets a sketch keeps (16 powers of two above its lowest key);
#: the lowest collapse into one when the range grows past it.
_MAX_BUCKETS = 2048
#: values a sketch buffers before bucketing them in one vectorised step.
_PENDING = 8192

_FLOAT64 = struct.Struct("=d")
_INT64 = struct.Struct("=q")


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _check_quantile(q: float) -> None:
    if not 0 <= q <= 1:
        raise ValueError(f"quantile out of range: {q}")


def quantile(samples, q: float) -> float:
    """Exact linearly interpolated q-quantile (0..1) of a sample sequence.

    Implements ``numpy.quantile``'s default "linear" method: sort, locate
    the virtual index ``q * (n - 1)``, interpolate between the flanking
    order statistics. Empty input yields 0.0. The chaos guard reads it
    over its bounded trailing window; everything reported goes through
    :class:`QuantileSketch`.
    """
    _check_quantile(q)
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    last = len(ordered) - 1
    if last < 0:
        return 0.0
    virtual = q * last
    lo = int(virtual)
    frac = virtual - lo
    return float(ordered[lo] * (1.0 - frac)
                 + ordered[min(lo + 1, last)] * frac)


def _key(value: float) -> int:
    """One positive value's bucket key: the bits the fold shifts."""
    return _INT64.unpack(_FLOAT64.pack(value))[0] >> _KEY_SHIFT


def _bucket_value(key: int) -> float:
    """The value a bucket reports: the harmonic mean of its bounds, within
    ``1 / (2·_PER_OCTAVE + 1)`` of anything in ``[low, high)``."""
    low, high = (_FLOAT64.unpack(_INT64.pack(k << _KEY_SHIFT))[0]
                 for k in (key, key + 1))
    return 2.0 * low / (1.0 + low / high)


class QuantileSketch:
    """Mergeable log-bucket quantile sketch (DDSketch, Masson et al.,
    VLDB 2019) with relative-error bound ``ALPHA`` = 0.5 %.

    Every estimate :meth:`quantiles` returns is within ``ALPHA`` of the
    order statistic at rank ``floor(q·(n−1))`` — the lower neighbour of
    ``numpy.quantile``'s virtual index — clamped to ``[min, max]``. Only
    the buckets collapsed by the ``_MAX_BUCKETS`` cap lose the bound, and
    they are the lowest: upper quantiles keep it.

    **Key mapping.** For a value ``x = m·2**e`` (``math.frexp``, ``m`` in
    ``[0.5, 1)``) the key is ``floor(128·((e − 1) + (2m − 1)))`` — the
    linear interpolation of ``log2`` between powers of two of DDSketch's
    interpolated mappings, in 128 buckets per power of two — offset by
    ``128·1023``. Scaling by a power of two is exact in IEEE arithmetic,
    so the key *is* the double's biased exponent and top 7 mantissa bits,
    ``bits >> 45``, and every path that buckets a value (a scalar
    :meth:`add`, a batch :meth:`add_many`, a merge) computes the same key.
    No ``log``: ``np.log`` and ``math.log`` disagree in the last place on
    some inputs, which would put boundary values in different buckets.

    **Counts** are dense int64 from the lowest key to the highest; values
    ``<= 0`` count in a separate zero bucket that reports 0.0. ``count``,
    ``total``, ``min`` and ``max`` are exact, and ``total`` is the
    left-to-right fold a sequence of ``+=`` would give.

    **Cost.** :meth:`add` and :meth:`add_many` append to a pending buffer
    of ``_PENDING`` doubles, so recording a value or a small batch costs
    an append and no numpy reduction. The buffer is folded — summed in
    arrival order, its extremes taken, its values bucketed — in one
    vectorised step when it fills and before anything reads the sketch
    (``total``, ``min``, ``max``, :meth:`quantiles`, :meth:`payload`,
    :meth:`merge`, pickling); a batch too big for the room left is folded
    on its own right after it. :meth:`merge` adds counts: it is
    exact, associative and commutative, so merging shards, a
    :meth:`payload` round trip and a pickle all give the sketch one
    stream of every value would.
    """

    __slots__ = ("count", "_total", "_min", "_max", "_zero", "_offset",
                 "_counts", "_pending")

    def __init__(self) -> None:
        self.count: int = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._zero = 0
        #: key of ``_counts[0]``.
        self._offset = 0
        self._counts = np.zeros(0, dtype=np.int64)
        self._pending = array("d")

    # -- recording ----------------------------------------------------------

    def add(self, value: float) -> None:
        self.count += 1
        # compared here as well as at the fold, so an ``int`` extreme
        # stays an ``int`` (an equal float from the buffer does not win)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        pending = self._pending
        pending.append(value)
        if len(pending) >= _PENDING:
            self._fold()

    def add_many(self, values) -> None:
        """Add a whole batch, bit-identical to adding its values serially."""
        values = list(values) if not hasattr(values, "__len__") else values
        n = len(values)
        if n == 0:
            return
        arr = np.asarray(values, dtype=np.float64)
        self.count += n
        pending = self._pending
        if len(pending) + n <= _PENDING:
            pending.frombytes(arr.tobytes())
            if len(pending) == _PENDING:
                self._fold()
        else:
            self._fold()
            self._take(arr)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in: counts add, so the result is exact."""
        self._fold()
        other._fold()
        self.count += other.count
        self._total += other._total
        if other._min is not None and (self._min is None
                                       or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None
                                       or other._max > self._max):
            self._max = other._max
        self._zero += other._zero
        if other._counts.size:
            self._absorb(other._offset, other._counts.copy())

    # -- folding ------------------------------------------------------------

    def _fold(self) -> None:
        """Take the pending buffer."""
        if self._pending:
            pending, self._pending = self._pending, array("d")
            self._take(np.frombuffer(pending, dtype=np.float64))

    def _take(self, values: np.ndarray) -> None:
        """Fold ``values``, the next ones after everything taken so far,
        into the sum, the extremes and the buckets.

        ``total`` must match a sequential ``total += v`` left fold exactly
        (the batch-equivalence oracle compares registry dumps), so the sum
        uses ``np.add.accumulate`` — a strict left-to-right recurrence —
        rather than ``np.sum``'s pairwise reduction.
        """
        acc = np.concatenate(((self._total,), values))
        self._total = float(np.add.accumulate(acc, out=acc)[-1])
        lo = float(values.min())
        hi = float(values.max())
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi
        self._bucket(values, lo, hi)

    def _bucket(self, values: np.ndarray, lo: float, hi: float) -> None:
        """Count ``values``, whose extremes are ``lo`` and ``hi``, into the
        buckets (keys are monotonic, so the extremes' keys bound them).

        When both extremes share a key, so does every value: one count
        update, no per-value keys. A fixed latency component lands there
        — three folds in four of a warm ``nic_fastpath`` pass, where
        skipping the bincount is +9 % pps (10 of 10 alternating bench
        pairs, 2-vCPU Xeon).
        """
        if not lo > 0:
            positive = values[values > 0]
            self._zero += values.size - positive.size
            if not positive.size:
                return
            values = positive
            lo, hi = float(values.min()), float(values.max())
        high = _key(hi)
        low = _key(lo)
        if low == high:
            self._absorb(low, np.array([values.size], dtype=np.int64))
            return
        floor = max(low, high - _MAX_BUCKETS + 1)
        keys = values.view(np.int64) >> _KEY_SHIFT
        keys -= floor
        if floor > low:
            np.maximum(keys, 0, out=keys)
        self._absorb(floor, np.bincount(keys, minlength=high - floor + 1))

    def _absorb(self, offset: int, counts: np.ndarray) -> None:
        """Add dense ``counts`` (at most ``_MAX_BUCKETS``, the first at
        key ``offset``; an array the sketch may keep), collapsing every
        bucket ``_MAX_BUCKETS`` or more below the highest key into the
        lowest one kept. Collapsing only ever raises the floor, so the
        result does not depend on the order counts arrive in."""
        mine, start = self._counts, self._offset
        end = offset + counts.size
        if not mine.size:
            self._offset, self._counts = offset, counts
            return
        if start <= offset and end <= start + mine.size:
            mine[offset - start:end - start] += counts
            return
        low = min(start, offset)
        high = max(start + mine.size, end)
        floor = max(low, high - _MAX_BUCKETS)
        merged = np.zeros(high - floor, dtype=np.int64)
        for first, part in ((start, mine), (offset, counts)):
            if first < floor:
                merged[0] += part[:floor - first].sum()
                part = part[floor - first:]
                first = floor
            merged[first - floor:first - floor + part.size] += part
        self._offset, self._counts = floor, merged

    # -- reading ------------------------------------------------------------

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def min(self) -> Optional[float]:
        self._fold()
        return self._min

    @property
    def max(self) -> Optional[float]:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Estimates of the q-quantiles (each 0..1), within ``ALPHA`` of
        the order statistic at rank ``q·(n−1)`` and clamped to
        ``[min, max]``. An empty sketch yields 0.0 for every ``q``."""
        for q in qs:
            _check_quantile(q)
        if not self.count:
            return [0.0 for _ in qs]
        self._fold()
        cumulative = list(accumulate(self._counts.tolist()))
        out = []
        for q in qs:
            rank = q * (self.count - 1) - self._zero
            value = 0.0 if rank < 0 else _bucket_value(
                self._offset + bisect_right(cumulative, rank))
            out.append(float(min(max(value, self._min), self._max)))
        return out

    def quantile(self, q: float) -> float:
        return self.quantiles((q,))[0]

    # -- serialization ------------------------------------------------------

    def payload(self) -> List[int]:
        """The buckets as plain ints: ``[zero count, lowest key, count,
        count, …]`` — the seventh field of a ``dump_state`` row."""
        self._fold()
        return [self._zero, self._offset] + self._counts.tolist()

    @classmethod
    def from_row(cls, count: int, total: float, minimum: Optional[float],
                 maximum: Optional[float],
                 payload: Sequence[int]) -> "QuantileSketch":
        """The sketch a ``dump_state`` row describes."""
        sketch = cls()
        sketch.count, sketch._total = count, total
        sketch._min, sketch._max = minimum, maximum
        sketch._zero, sketch._offset = int(payload[0]), int(payload[1])
        sketch._counts = np.array(payload[2:], dtype=np.int64)
        return sketch

    def __getstate__(self) -> dict:
        self._fold()
        return {name: getattr(self, name)
                for cls in type(self).__mro__
                for name in getattr(cls, "__slots__", ())
                if name != "_pending"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._pending = array("d")


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


class Histogram(QuantileSketch):
    """A named, labelled :class:`QuantileSketch`: exact count/sum/min/max,
    quantiles within ``ALPHA`` over every observation."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelKey = ()):
        super().__init__()
        self.name = name
        self.labels = labels

    observe = QuantileSketch.add
    observe_many = QuantileSketch.add_many

    def summary(self) -> Dict[str, float]:
        p50, p95, p99 = self.quantiles((0.50, 0.95, 0.99))
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

    def merge(self, other) -> None:
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
        """Serializable full state (including histogram buckets).

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
                 h.payload()]
                for h in sorted(self._histograms.values(),
                                key=lambda h: (h.name, h.labels))
            ],
        }

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add; histograms merge exactly (count/sum/min/max and
        every bucket). No-op instruments are skipped, and a disabled
        registry ignores everything.
        """
        for name, labels, value in state.get("counters", ()):
            if value:
                self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in state.get("gauges", ()):
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, *row in state.get("histograms", ()):
            if row[0]:
                self.histogram(name, **dict(labels)).merge(
                    QuantileSketch.from_row(*row)
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
