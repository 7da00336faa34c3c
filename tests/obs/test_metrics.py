"""Unit tests for the observability core (``repro.obs``)."""

import json
import pickle

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_TIMER,
    QuantileSketch,
    get_registry,
    render_json,
    render_text,
    scoped_registry,
    set_registry,
)
from repro.obs.metrics import ALPHA


class TestCounter:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.counter("events").inc()
        registry.counter("events").inc(4)
        assert registry.counter_value("events") == 5

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("lp.solves", objective="marginal").inc()
        registry.counter("lp.solves", objective="max_min").inc(2)
        assert registry.counter_value("lp.solves", objective="marginal") == 1
        assert registry.counter_value("lp.solves", objective="max_min") == 2

    def test_label_order_insensitive(self):
        registry = MetricsRegistry()
        a = registry.counter("drops", device="s0", reason="acl")
        b = registry.counter("drops", reason="acl", device="s0")
        assert a is b

    def test_counter_value_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.counter_value("never.touched") == 0
        assert list(registry.counters()) == []


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        h = registry.histogram("sizes")
        for value in [1.0, 2.0, 3.0, 4.0]:
            h.observe(value)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5

    def test_percentiles(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        for value in range(101):
            h.observe(float(value))
        assert h.quantile(0.5) == pytest.approx(50.0, rel=ALPHA)
        assert h.quantile(0) == 0.0
        assert h.quantile(1) == pytest.approx(100.0, rel=ALPHA)
        assert h.quantile(1) <= h.max
        with pytest.raises(ValueError):
            h.quantile(1.01)

    def test_quantiles_cover_every_observation(self):
        """The tail of a long run counts: 10 000 observations whose
        slow 2 % all come after the first 4 096 (where histograms used to
        stop keeping samples) move p99, in the summary and after a
        dump/merge round trip."""
        registry = MetricsRegistry()
        h = registry.histogram("rack.latency_us", chain="a")
        for index in range(9800):
            h.observe(10.0 + index % 7)
        h.observe_many([1000.0] * 200)
        assert h.count == 10_000
        assert h.max == 1000.0
        summary = h.summary()
        assert summary["p50"] == pytest.approx(13.0, rel=ALPHA)
        assert summary["p99"] == pytest.approx(1000.0, rel=ALPHA)
        merged = MetricsRegistry()
        merged.merge_state(registry.dump_state())
        assert merged.histogram("rack.latency_us", chain="a").summary() \
            == summary

    def test_buckets_survive_dump_merge_and_pickle(self):
        """``dump_state`` rows keep seven fields, the seventh the plain-
        int bucket payload, so a dump stays JSON; merging a dump twice is
        the sketch of every value twice, and a pickle (taken with values
        still pending) thaws to the same dump."""
        registry = MetricsRegistry()
        stages = registry.histogram("metacompiler.p4.stages")
        stages.observe(2)
        stages.observe_many([3, 5])
        lat = registry.histogram("lat", chain="a")
        lat.observe_many([0.25, 1.5, 0.75])

        state = registry.dump_state()
        name, labels, count, total, low, high, payload = \
            state["histograms"][1]
        assert (name, count, total, low, high) == \
            ("metacompiler.p4.stages", 3, 10, 2, 5)
        assert type(payload) is list
        assert {type(entry) for entry in payload} == {int}
        json.dumps(state)  # the shard transport's requirement

        merged = MetricsRegistry()
        merged.merge_state(state)
        merged.merge_state(state)
        twice = QuantileSketch()
        twice.add_many([0.25, 1.5, 0.75] * 2)
        assert merged.histogram("lat", chain="a").count == 6
        assert merged.dump_state()["histograms"][0][6] == twice.payload()

        lat.observe(0.5)  # pending when the pickle is taken
        thawed = pickle.loads(pickle.dumps(registry))
        assert thawed.dump_state() == registry.dump_state()
        assert thawed.histogram("lat", chain="a").quantile(0.5) == \
            pytest.approx(0.5, rel=ALPHA)

    def test_every_way_in_reaches_the_buckets(self):
        """observe, observe_many and merge all land in the same buckets
        as one sketch of every value, past the pending buffer's size."""
        registry = MetricsRegistry()
        h = registry.histogram("big")
        h.observe_many([1.0] * 9000)
        shard = QuantileSketch()
        shard.add_many([2.0, 2.5, 2.0])
        h.merge(shard)
        h.observe(3.0)
        h.observe_many([4.0, 4.5])
        whole = QuantileSketch()
        for value in [1.0] * 9000 + [2.0, 2.5, 2.0, 3.0, 4.0, 4.5]:
            whole.add(value)
        assert (h.count, h.total, h.min, h.max) == \
            (whole.count, whole.total, whole.min, whole.max)
        assert registry.dump_state()["histograms"][0][6] == whole.payload()
        assert h.quantile(1.0) == 4.5


class TestTimer:
    def test_observes_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("phase.seconds", stage="x") as t:
            sum(range(1000))
        h = registry.histogram("phase.seconds", stage="x")
        assert h.count == 1
        assert t.last_seconds >= 0
        assert h.total == pytest.approx(t.last_seconds)


class TestDisabledRegistry:
    def test_getters_return_null_singletons(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("c") is NULL_COUNTER
        assert registry.histogram("h") is NULL_HISTOGRAM
        assert registry.timer("t") is NULL_TIMER

    def test_null_instruments_record_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc(10)
        registry.histogram("h").observe(1.0)
        with registry.timer("t"):
            pass
        snapshot = registry.snapshot()
        assert snapshot == {"counters": [], "gauges": [], "histograms": []}


class TestRegistrySwapping:
    def test_set_registry_installs_fresh_default(self):
        previous = get_registry()
        try:
            fresh = set_registry()
            assert get_registry() is fresh
            assert fresh is not previous
        finally:
            set_registry(previous)

    def test_scoped_registry_restores(self):
        before = get_registry()
        with scoped_registry() as scoped:
            assert get_registry() is scoped
            scoped.counter("inside").inc()
        assert get_registry() is before
        assert before.counter_value("inside") == 0


class TestExport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("rack.packets.injected", chain="a").inc(7)
        registry.histogram("rack.latency_us", chain="a").observe(11.5)
        return registry

    def test_render_json_round_trips(self):
        registry = self._populated()
        doc = json.loads(render_json(registry))
        [counter] = doc["counters"]
        assert counter["name"] == "rack.packets.injected"
        assert counter["labels"] == {"chain": "a"}
        assert counter["value"] == 7
        [hist] = doc["histograms"]
        assert hist["count"] == 1
        assert hist["mean"] == 11.5

    def test_render_text_lines(self):
        text = render_text(self._populated())
        assert "rack.packets.injected{chain=a}" in text
        assert "rack.latency_us{chain=a}" in text


class TestQuantile:
    """The module-level interpolating quantile (numpy-``linear`` method)."""

    def test_matches_numpy_on_seeded_data(self):
        import random

        import numpy as np

        from repro.obs import quantile

        rng = random.Random(7)
        samples = [rng.uniform(0.0, 500.0) for _ in range(257)]
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert quantile(samples, q) == pytest.approx(
                float(np.quantile(samples, q)), rel=1e-12)

    def test_interpolation_and_edges(self):
        from repro.obs import quantile

        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        assert quantile([5.0], 0.99) == 5.0
        assert quantile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_order_invariant(self):
        from repro.obs import quantile

        a = [9.0, 2.0, 7.0, 4.0, 1.0]
        assert quantile(a, 0.5) == quantile(sorted(a), 0.5)
        assert quantile(a, 0.5) == quantile(list(reversed(a)), 0.5)

    def test_empty_returns_zero(self):
        from repro.obs import quantile

        assert quantile([], 0.99) == 0.0

    def test_out_of_range_raises(self):
        from repro.obs import quantile

        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            quantile([1.0], -0.1)

    def test_out_of_range_raises_on_empty_input_too(self):
        from repro.obs import quantile

        with pytest.raises(ValueError):
            quantile([], 2.0)
        with pytest.raises(ValueError):
            QuantileSketch().quantiles((0.5, 2.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty").quantile(-0.5)

    def test_sketch_quantiles_equal_one_quantile_call_each(self):
        """``QuantileSketch.quantiles`` is what every report row and
        ``summary()`` call: the same floats as one ``quantile`` call per
        ``q``, each within ``ALPHA`` of the order statistic at rank
        ``floor(q·(n−1))``."""
        import random

        rng = random.Random(11)
        qs = (0.50, 0.95, 0.99)
        for size in (1, 2, 3, 16, 100, 101, 4096, 5000):
            samples = [rng.uniform(0.0, 500.0) for _ in range(size)]
            samples += samples[: size // 3]  # ties
            sketch = QuantileSketch()
            sketch.add_many(samples)
            got = sketch.quantiles(qs)
            assert got == [sketch.quantile(q) for q in qs]
            assert all(type(value) is float for value in got)
            ordered = sorted(samples)
            assert got == pytest.approx(
                [ordered[int(q * (len(ordered) - 1))] for q in qs],
                rel=ALPHA)
        assert QuantileSketch().quantiles(qs) == [0.0, 0.0, 0.0]

    def test_summary_uses_the_same_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rack.latency_us", chain="b")
        values = [float((i * 7919) % 1013) for i in range(4096 + 50)]
        for value in values:
            hist.observe(value)
        whole = QuantileSketch()
        whole.add_many(values)
        summary = hist.summary()
        assert [summary["p50"], summary["p95"], summary["p99"]] == \
            whole.quantiles((0.50, 0.95, 0.99))

    def test_histogram_quantile_and_p95_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rack.latency_us", chain="a")
        for value in (10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        # no interpolation: rank q·(n−1) = 1.5 reads the order statistic
        # at 1, within ALPHA
        assert hist.quantile(0.5) == pytest.approx(20.0, rel=ALPHA)
        summary = hist.summary()
        assert summary["p95"] == hist.quantile(0.95)
        assert summary["p95"] == pytest.approx(30.0, rel=ALPHA)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
