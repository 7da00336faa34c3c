"""Unit tests for the observability core (``repro.obs``)."""

import json
import pickle

import pytest

from repro.obs import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_TIMER,
    get_registry,
    render_json,
    render_text,
    scoped_registry,
    set_registry,
)
from repro.obs.metrics import SAMPLE_CAP


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
        assert h.quantile(0.5) == 50.0
        assert h.quantile(0) == 0.0
        assert h.quantile(1) == 100.0
        with pytest.raises(ValueError):
            h.quantile(1.01)

    def test_sample_cap_keeps_exact_aggregates(self):
        registry = MetricsRegistry()
        h = registry.histogram("big")
        for value in range(SAMPLE_CAP + 100):
            h.observe(float(value))
        assert h.count == SAMPLE_CAP + 100
        assert h.max == float(SAMPLE_CAP + 99)


    def test_samples_are_c_doubles_through_dump_merge_and_pickle(self):
        """Retained samples live in an ``array('d')``: an ``int``
        observation comes back as a ``float`` (aggregates keep their
        type), ``dump_state`` still hands out plain lists, and
        observe / observe_many / merge fill it the same way."""
        registry = MetricsRegistry()
        stages = registry.histogram("metacompiler.p4.stages")
        stages.observe(2)
        stages.observe_many([3, 5])
        lat = registry.histogram("lat", chain="a")
        lat.observe_many([0.25, 1.5, 0.75])

        state = registry.dump_state()
        name, labels, count, total, low, high, samples = \
            state["histograms"][1]
        assert (name, count, total, low, high) == \
            ("metacompiler.p4.stages", 3, 10, 2, 5)
        assert samples == [2.0, 3.0, 5.0]
        assert [type(s) for s in samples] == [float] * 3
        assert type(samples) is list
        json.dumps(state)  # the shard transport's requirement

        merged = MetricsRegistry()
        merged.merge_state(state)
        merged.merge_state(state)
        assert merged.histogram("lat", chain="a").count == 6
        assert merged.dump_state()["histograms"][0][6] == \
            [0.25, 1.5, 0.75] * 2

        thawed = pickle.loads(pickle.dumps(registry))
        assert thawed.dump_state() == state
        assert thawed.histogram("lat", chain="a").quantile(0.5) == 0.75

    def test_sample_cap_holds_for_every_way_in(self):
        registry = MetricsRegistry()
        h = registry.histogram("big")
        h.observe_many([1.0] * (SAMPLE_CAP - 2))
        h.merge(3, 6.0, 2.0, 2.0, [2.0, 2.0, 2.0])
        h.observe(3.0)
        h.observe_many([4.0, 4.0])
        assert h.count == SAMPLE_CAP + 4
        samples = registry.dump_state()["histograms"][0][6]
        assert len(samples) == SAMPLE_CAP
        assert samples[-2:] == [2.0, 2.0]


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
        from repro.obs import quantile, quantiles

        with pytest.raises(ValueError):
            quantile([], 2.0)
        with pytest.raises(ValueError):
            quantiles([], (0.5, 2.0))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty").quantile(-0.5)

    def test_quantiles_sort_once_equals_three_quantile_calls(self):
        """``quantiles`` is what every report row and ``summary()`` call:
        bit-identical to the sort-per-call pure-Python definition (kept
        here as the oracle), and numpy-``linear`` to rounding."""
        import random

        import numpy as np

        from repro.obs import quantile, quantiles

        def reference(samples, q):
            ordered = sorted(samples)
            virtual = q * (len(ordered) - 1)
            lo = int(virtual)
            hi = min(lo + 1, len(ordered) - 1)
            frac = virtual - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

        rng = random.Random(11)
        qs = (0.50, 0.95, 0.99)
        for size in (1, 2, 3, 16, 100, 101, 4096, 5000):
            samples = [rng.uniform(0.0, 500.0) for _ in range(size)]
            samples += samples[: size // 3]  # ties
            got = quantiles(samples, qs)
            assert got == [reference(samples, q) for q in qs]
            assert got == [quantile(samples, q) for q in qs]
            assert all(type(value) is float for value in got)
            assert got == pytest.approx(
                [float(np.quantile(samples, q)) for q in qs], rel=1e-12)
        assert quantiles([], qs) == [0.0, 0.0, 0.0]
        assert quantiles([4, 1, 3], (0.0, 0.5, 1.0)) == [1.0, 3.0, 4.0]

    def test_summary_uses_the_same_quantiles(self):
        from repro.obs import quantiles

        registry = MetricsRegistry()
        hist = registry.histogram("rack.latency_us", chain="b")
        values = [float((i * 7919) % 1013) for i in range(SAMPLE_CAP + 50)]
        for value in values:
            hist.observe(value)
        summary = hist.summary()
        assert [summary["p50"], summary["p95"], summary["p99"]] == quantiles(
            values[:SAMPLE_CAP], (0.50, 0.95, 0.99))

    def test_histogram_quantile_and_p95_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rack.latency_us", chain="a")
        for value in (10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        # the summary's p-columns are the same interpolating quantile
        assert hist.quantile(0.5) == pytest.approx(25.0)
        summary = hist.summary()
        assert summary["p95"] == pytest.approx(hist.quantile(0.95))
        assert summary["p95"] == pytest.approx(38.5)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
