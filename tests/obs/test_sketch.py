"""Properties of the one quantile path, ``repro.obs.QuantileSketch``.

Accuracy against ``np.quantile``'s order statistics at 10⁶ samples,
exact merges (direct, through ``dump_state``/``merge_state`` and through
pickle), bit-identical buckets whatever way values arrive, and the edge
cases a report can hit.
"""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, QuantileSketch
from repro.obs.metrics import (
    ALPHA,
    _KEY_SHIFT,
    _MAX_BUCKETS,
    _PER_OCTAVE,
    _bucket_value,
)

QS = (0.01, 0.5, 0.95, 0.99, 0.999)


def _sketch(values) -> QuantileSketch:
    sketch = QuantileSketch()
    sketch.add_many(values)
    return sketch


def _identity(sketch: QuantileSketch) -> tuple:
    """Everything a sketch is, the float sum aside."""
    return sketch.count, sketch.min, sketch.max, sketch.payload()


def _boundary(key: int) -> float:
    """The lowest double in bucket ``key``."""
    return float(np.array([key << _KEY_SHIFT]).view(np.float64)[0])


def _datasets():
    rng = np.random.default_rng(2020)
    n = 10**6
    return {
        "uniform": rng.uniform(0.0, 1000.0, n),
        "lognormal": rng.lognormal(2.0, 1.0, n),
        "bimodal": np.concatenate([rng.normal(10.0, 1.0, n // 2),
                                   rng.normal(1000.0, 50.0, n // 2)]),
    }


# -- accuracy -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["uniform", "lognormal", "bimodal"])
def test_estimates_are_within_alpha_of_the_order_statistic(name):
    """Each estimate is within ``ALPHA`` of an order statistic next to
    ``np.quantile``'s virtual index ``q·(n−1)``."""
    values = _datasets()[name]
    sketch = _sketch(values)
    ordered = np.sort(values)
    last = len(ordered) - 1
    for q, got in zip(QS, sketch.quantiles(QS)):
        virtual = q * last
        assert ordered[math.floor(virtual)] <= float(np.quantile(values, q)) \
            <= ordered[math.ceil(virtual)]
        neighbours = (ordered[math.floor(virtual)], ordered[math.ceil(virtual)])
        assert any(abs(got - x) <= ALPHA * abs(x) for x in neighbours), \
            (name, q, got, neighbours)


def test_every_bucket_reports_within_alpha_of_its_range():
    rng = random.Random(5)
    # every normal double's bucket whose upper bound is finite
    for key in [rng.randrange(1 << 7, (2047 << 7) - 1) for _ in range(2000)]:
        low, high = _boundary(key), _boundary(key + 1)
        value = _bucket_value(key)
        assert low < value < high
        assert (value - low) / low <= ALPHA
        assert (high - value) / high <= ALPHA
    # 128 buckets per power of two: the top 7 mantissa bits, and the
    # fewest powers of two within ALPHA (64 would give 1/129)
    assert 1 << (52 - _KEY_SHIFT) == _PER_OCTAVE
    assert 1 / (2 * _PER_OCTAVE + 1) <= ALPHA < 1 / (_PER_OCTAVE + 1)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=2.3e-308, max_value=1e300))
def test_key_is_the_interpolated_log2_from_frexp(value):
    """The bucket key is DDSketch's linearly interpolated ``log2`` —
    ``(e − 1) + (2m − 1)`` for ``x = m·2**e`` — times 128, floored, in
    exact IEEE arithmetic: a scalar ``math.frexp`` computes the key the
    vectorised fold does."""
    mantissa, exponent = math.frexp(value)
    key = (_PER_OCTAVE * (exponent - 1 + 1023)
           + math.floor((2.0 * mantissa - 1.0) * _PER_OCTAVE))
    sketch = QuantileSketch()
    sketch.add(value)
    assert sketch.payload() == [0, key, 1]
    assert _boundary(key) <= value < _boundary(key + 1)
    # a batch in one bucket is one count update, at the same key
    assert _sketch([value] * 3).payload() == [0, key, 3]


# -- merges -------------------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_merging_shards_is_one_sketch_of_every_value(shards):
    rng = np.random.default_rng(shards)
    values = np.concatenate([rng.lognormal(3.0, 2.0, 40_000),
                             np.zeros(500), -rng.uniform(0, 1, 300)])
    rng.shuffle(values)
    cuts = np.sort(rng.choice(np.arange(1, len(values)), shards - 1,
                              replace=False))
    parts = np.split(values, cuts)
    whole = _sketch(values)

    def direct(order):
        merged = QuantileSketch()
        for index in order:
            merged.merge(_sketch(parts[index]))
        return merged

    forward = direct(range(shards))
    backward = direct(reversed(range(shards)))
    # associativity: merge the shards pairwise, then the pairs
    pairs = [_sketch(parts[i]) for i in range(shards)]
    while len(pairs) > 1:
        head = pairs.pop(0)
        head.merge(pairs.pop(0))
        pairs.append(head)
    (tree,) = pairs

    via_dump = MetricsRegistry()
    for part in parts:
        worker = MetricsRegistry()
        worker.histogram("rack.latency_us", chain="a").observe_many(part)
        via_dump.merge_state(worker.dump_state())
    dumped = via_dump.histogram("rack.latency_us", chain="a")

    via_pickle = QuantileSketch()
    for part in parts:
        shard = QuantileSketch()
        shard.add_many(part[:-1])
        shard.add(float(part[-1]))  # pending at pickle time
        via_pickle.merge(pickle.loads(pickle.dumps(shard)))

    for merged in (forward, backward, tree, dumped, via_pickle):
        assert _identity(merged) == _identity(whole)
        assert merged.total == pytest.approx(whole.total)
        assert merged.quantiles(QS) == whole.quantiles(QS)


# -- whatever way the values arrive -------------------------------------------

#: keys around 1.0 and around 1000.0, and the doubles at their lower
#: boundary and one ulp either side
_KEYS = st.one_of(st.integers((1023 - 3) << 7, (1023 + 3) << 7),
                  st.integers((1032 - 1) << 7, (1032 + 1) << 7))


@st.composite
def _edge_values(draw):
    boundary = _boundary(draw(_KEYS))
    nudge = draw(st.sampled_from([-math.inf, 0.0, math.inf]))
    value = boundary if nudge == 0.0 else math.nextafter(boundary, nudge)
    return draw(st.sampled_from([value, value, value, 0.0, -value]))


_VALUES = st.lists(
    st.one_of(_edge_values(),
              st.floats(min_value=-1e6, max_value=1e9, allow_nan=False)),
    min_size=1, max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(values=_VALUES, cuts=st.lists(st.integers(0, 300), max_size=6),
       data=st.data())
def test_add_add_many_and_any_chunking_are_bit_identical(values, cuts, data):
    one_by_one = QuantileSketch()
    for value in values:
        one_by_one.add(value)
    chunked = QuantileSketch()
    bounds = [0] + sorted(cut % (len(values) + 1) for cut in cuts) \
        + [len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        if data.draw(st.booleans()):
            chunked.add_many(np.array(values[lo:hi]))
        else:
            chunked.add_many(values[lo:hi])
    whole = _sketch(values)
    # a read folds the buffer: one fold per chunk, small and large
    read_between = QuantileSketch()
    for lo, hi in zip(bounds, bounds[1:]):
        read_between.add_many(values[lo:hi])
        assert read_between.total is not None
    for sketch in (chunked, whole, read_between):
        assert _identity(sketch) == _identity(one_by_one)
        assert sketch.total == one_by_one.total


@pytest.mark.parametrize("seed", [1, 2])
def test_chunking_past_the_buffer_and_the_cap_is_bit_identical(seed):
    """Chunks of every size around the pending buffer, on a range wide
    enough that the bucket cap collapses: the same buckets as one batch
    and as one value at a time."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-25.0, 25.0, 60_000))
    values[rng.choice(len(values), 100)] = 0.0
    whole = _sketch(values)
    chunked = QuantileSketch()
    start = 0
    while start < len(values):
        size = int(rng.choice([1, 63, 64, 4096, 8191, 8192, 8193, 20_000]))
        if size == 1:
            chunked.add(float(values[start]))
        else:
            chunked.add_many(values[start:start + size])
        start += size
    serial = QuantileSketch()
    for value in values.tolist():
        serial.add(value)
    assert _identity(chunked) == _identity(whole) == _identity(serial)
    assert chunked.total == whole.total == serial.total
    assert len(whole.payload()) == _MAX_BUCKETS + 2


# -- edge cases ---------------------------------------------------------------


def test_empty_sketch_reads_zero():
    sketch = QuantileSketch()
    assert sketch.quantiles(QS) == [0.0] * len(QS)
    assert sketch.payload() == [0, 0]
    assert sketch.mean == 0.0
    sketch.add_many([])
    assert sketch.count == 0


@pytest.mark.parametrize("value", [1e-300, 0.75, 11.599412, 3.0e12])
def test_one_value_and_equal_values_read_back_exactly(value):
    single = QuantileSketch()
    single.add(value)
    assert single.quantiles((0.0, 0.5, 0.99, 1.0)) == [value] * 4
    same = _sketch([value] * 10_000)
    assert same.quantiles(QS) == [value] * len(QS)
    assert same.payload()[2:] == [10_000]


def test_zeros_and_negatives_count_in_the_zero_bucket():
    sketch = _sketch([0.0] * 10 + [-0.0] * 5 + [5.0] * 10)
    assert sketch.payload()[0] == 15
    assert sketch.quantile(0.25) == 0.0
    assert sketch.quantile(0.9) == 5.0
    # the zero bucket reads 0.0, clamped to what was observed
    below = _sketch([-3.0, -1.0, -2.0])
    assert below.quantiles((0.0, 1.0)) == [-1.0, -1.0]
    mixed = _sketch([-2.0, 0.0, 0.0, 4.0])
    assert mixed.quantiles((0.0, 0.5, 1.0)) == [0.0, 0.0, 4.0]


def test_a_range_wider_than_the_cap_keeps_upper_quantiles():
    """18 decades, log-uniform: the cap keeps the top 16 powers of two,
    so the lowest quarter of the values share one bucket while p75 and
    above stay within ``ALPHA``."""
    rng = np.random.default_rng(9)
    values = 10.0 ** rng.uniform(-9.0, 9.0, 200_000)
    sketch = _sketch(values)
    assert len(sketch.payload()) == _MAX_BUCKETS + 2
    ordered = np.sort(values)
    upper = (0.75, 0.9, 0.99, 0.999, 1.0)
    for q, got in zip(upper, sketch.quantiles(upper)):
        exact = ordered[int(q * (len(ordered) - 1))]
        assert abs(got - exact) <= ALPHA * exact
    # below the floor an estimate is the collapsed bucket's: too high
    assert sketch.quantile(0.01) > ordered[int(0.01 * (len(ordered) - 1))]
