"""Metrics instruments: counters, gauges, histograms, registry, merging."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_accumulates_per_label_set(self):
        counter = Counter("cache.lookup")
        counter.inc(tier="memory")
        counter.inc(2.0, tier="memory")
        counter.inc(tier="disk")
        assert counter.value(tier="memory") == 3.0
        assert counter.value(tier="disk") == 1.0
        assert counter.value(tier="absent") == 0.0

    def test_label_order_is_canonical(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0


class TestGauge:
    def test_set_is_last_write_wins(self):
        gauge = Gauge("queue.depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2.0


class TestHistogram:
    def test_observe_counts_and_sums(self):
        histogram = Histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(6.05)

    def test_percentile_interpolates(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)
        p50 = histogram.percentile(0.50)
        assert 1.0 <= p50 <= 2.0

    def test_percentile_inf_bucket_reports_max(self):
        histogram = Histogram("latency", buckets=(0.001,))
        histogram.observe(7.5)
        assert histogram.percentile(0.99) == 7.5

    def test_empty_percentile_is_zero(self):
        assert Histogram("latency").percentile(0.95) == 0.0

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("bad", buckets=(1.0, 1.0))

    def test_default_buckets(self):
        assert Histogram("latency").buckets == DEFAULT_LATENCY_BUCKETS


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")
        assert len(registry) == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("hits")

    def test_payload_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc()
        names = [item["name"] for item in registry.to_payload()]
        assert names == ["alpha", "zeta"]

    def test_merge_payload_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("runs").inc(3.0, backend="process")
        worker.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
        worker.gauge("depth").set(7.0)

        driver = MetricsRegistry()
        driver.counter("runs").inc(1.0, backend="process")
        driver.histogram("latency", buckets=(0.1, 1.0)).observe(0.5)

        driver.merge_payload(worker.to_payload())
        assert driver.counter("runs").value(backend="process") == 4.0
        assert driver.histogram("latency").count() == 2
        assert driver.gauge("depth").value() == 7.0

    def test_merge_rejects_incompatible_buckets(self):
        worker = MetricsRegistry()
        worker.histogram("latency", buckets=(0.1,)).observe(0.05)
        driver = MetricsRegistry()
        driver.histogram("latency", buckets=(0.1, 1.0)).observe(0.5)
        with pytest.raises(ValueError, match="incompatible bucket layout"):
            driver.merge_payload(worker.to_payload())


def test_unlabelled_and_labelled_series_render_unchanged():
    """Unlabelled series share one key with an explicitly empty label set,
    sort before labelled ones, and render to the same payload and
    Prometheus text as labelled-only code paths always have."""
    from repro.telemetry.export import to_prometheus

    registry = MetricsRegistry()
    registry.counter("serve.outcome", help="answers").inc()
    registry.counter("serve.outcome").inc(2.0, status="ok")
    registry.counter("serve.outcome").inc(**{})
    registry.gauge("queue.depth").set(3)
    latency = registry.histogram("serve.latency", buckets=(0.1, 1.0))
    latency.observe(0.05)
    latency.observe(0.5, shard=1)
    latency.observe(2.0)
    payload = registry.to_payload()
    assert payload == [
        {"name": "queue.depth", "kind": "gauge", "help": "",
         "series": [{"labels": {}, "value": 3.0}]},
        {"name": "serve.latency", "kind": "histogram", "help": "", "bounds": [0.1, 1.0],
         "series": [
             {"labels": {}, "buckets": [1, 0, 1], "sum": 2.05, "count": 2, "max": 2.0},
             {"labels": {"shard": "1"}, "buckets": [0, 1, 0], "sum": 0.5, "count": 1,
              "max": 0.5},
         ]},
        {"name": "serve.outcome", "kind": "counter", "help": "answers",
         "series": [{"labels": {}, "value": 2.0}, {"labels": {"status": "ok"}, "value": 2.0}]},
    ]
    assert to_prometheus({"metrics": payload}) == (
        "# TYPE queue_depth gauge\n"
        "queue_depth 3.0\n"
        "# TYPE serve_latency histogram\n"
        'serve_latency_bucket{le="0.1"} 1\n'
        'serve_latency_bucket{le="1"} 1\n'
        'serve_latency_bucket{le="+Inf"} 2\n'
        "serve_latency_sum 2.05\n"
        "serve_latency_count 2\n"
        'serve_latency_bucket{le="0.1",shard="1"} 0\n'
        'serve_latency_bucket{le="1",shard="1"} 1\n'
        'serve_latency_bucket{le="+Inf",shard="1"} 1\n'
        'serve_latency_sum{shard="1"} 0.5\n'
        'serve_latency_count{shard="1"} 1\n'
        "# HELP serve_outcome answers\n"
        "# TYPE serve_outcome counter\n"
        "serve_outcome 2.0\n"
        'serve_outcome{status="ok"} 2.0\n'
    )
    merged = MetricsRegistry()
    merged.merge_payload(payload)
    assert merged.to_payload() == payload
