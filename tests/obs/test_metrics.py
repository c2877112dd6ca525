"""Tests for the metrics registry."""

import json
import threading

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_counters_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("events").inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for value in (0.2, 0.4, 8.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(8.6)
        assert snap["min"] == pytest.approx(0.2)
        assert snap["max"] == pytest.approx(8.0)
        assert snap["mean"] == pytest.approx(8.6 / 3)

    def test_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {"1.0": 1, "10.0": 2}


class TestLifecycle:
    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc(7)
        registry.reset()
        assert counter.value == 0
        # Same instrument object still registered.
        assert registry.counter("events") is counter

    def test_clear_forgets_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        registry.clear()
        assert registry.counter("events") is not counter

    def test_global_registry_is_stable(self):
        assert get_registry() is get_registry()


class TestExport:
    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.3)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_to_json_parses(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        decoded = json.loads(registry.to_json())
        assert decoded["counters"]["cache.hits"] == 3

    def test_prometheus_counter_format(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits", "World-cache hits").inc(3)
        text = registry.to_prometheus()
        assert "# HELP cache_hits_total World-cache hits" in text
        assert "# TYPE cache_hits_total counter" in text
        assert "cache_hits_total 3.0" in text

    def test_prometheus_histogram_format(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency.seconds", buckets=(1.0,))
        hist.observe(0.5)
        hist.observe(2.0)
        text = registry.to_prometheus()
        assert 'latency_seconds_bucket{le="1.0"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert "latency_seconds_count 2" in text

    def test_prometheus_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.gauge("world.events/sec").set(10)
        assert "world_events_sec 10.0" in registry.to_prometheus()

    def test_prometheus_inf_bucket_counts_over_bound_values(self):
        # The +Inf bucket is synthesized from the total count, so values
        # above every explicit bound must still land there.
        registry = MetricsRegistry()
        hist = registry.histogram("latency", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 5000.0):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'latency_bucket{le="1.0"} 1' in text
        assert 'latency_bucket{le="10.0"} 2' in text
        assert 'latency_bucket{le="+Inf"} 3' in text

    def test_prometheus_zero_observation_histogram(self):
        # A registered-but-never-observed histogram must still export a
        # complete, scrape-valid series (all zeros), not crash on the
        # None min/max.
        registry = MetricsRegistry()
        registry.histogram("latency", buckets=(1.0,))
        text = registry.to_prometheus()
        assert 'latency_bucket{le="1.0"} 0' in text
        assert 'latency_bucket{le="+Inf"} 0' in text
        assert "latency_sum 0.0" in text
        assert "latency_count 0" in text

    def test_prometheus_sanitizes_leading_digit(self):
        registry = MetricsRegistry()
        registry.counter("3rd.party.calls").inc()
        assert "_3rd_party_calls_total 1.0" in registry.to_prometheus()

    def test_prometheus_empty_registry_is_empty_string(self):
        # An empty exposition must be truly empty -- "\n" makes file
        # collectors ingest a blank malformed line.
        assert MetricsRegistry().to_prometheus() == ""

    def test_prometheus_no_help_line_without_description(self):
        registry = MetricsRegistry()
        registry.counter("bare").inc()
        text = registry.to_prometheus()
        assert "# HELP" not in text
        assert "# TYPE bare_total counter" in text
        assert text.endswith("\n")


class TestThreadSafety:
    def test_concurrent_increments_all_land(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def hammer():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 40_000
