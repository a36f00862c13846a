"""The metrics registry: counters, gauges, histograms, Prometheus text.

The registry is shared mutable state updated from every serving thread, so
the core contract is *exactness under concurrency*: N threads hammering the
same counter/histogram must never lose an increment (``+=`` on a plain
attribute would — the GIL does not make read-modify-write atomic).  The
rendering contract is Prometheus text exposition 0.0.4: cumulative
``_bucket`` series with an ``+Inf`` bucket, ``_sum``/``_count``, and label
escaping that survives quotes, backslashes and newlines.
"""

import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    merge_label_filters,
)


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


# ----------------------------------------------------------------------
# Concurrency: exact totals from N threads
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_counter_exact_total_under_contention(self, registry):
        counter = registry.counter("hits_total", "hits", labelnames=("op",))
        threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                counter.inc(("access",))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value(("access",)) == threads * per_thread

    def test_counter_distinct_labels_under_contention(self, registry):
        counter = registry.counter("ops_total", "ops", labelnames=("op",))
        threads, per_thread = 6, 3000

        def hammer(op):
            for _ in range(per_thread):
                counter.inc((op,))

        workers = [
            threading.Thread(target=hammer, args=(f"op{i % 3}",))
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        for label in ("op0", "op1", "op2"):
            assert counter.value((label,)) == 2 * per_thread

    def test_histogram_exact_count_and_sum_under_contention(self, registry):
        histogram = registry.histogram("latency_seconds", "latency")
        threads, per_thread = 8, 4000

        def hammer():
            for _ in range(per_thread):
                histogram.observe(0.001)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert histogram.count() == threads * per_thread
        assert histogram.sum() == pytest.approx(threads * per_thread * 0.001)

    def test_gauge_set_is_last_writer_wins(self, registry):
        gauge = registry.gauge("depth", "depth")
        gauge.set(3)
        gauge.inc(amount=2)
        gauge.dec()
        assert gauge.value() == 4


# ----------------------------------------------------------------------
# Histograms: buckets and quantiles
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self, registry):
        histogram = registry.histogram(
            "h", "h", buckets=(0.01, 0.1, 1.0)
        )
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        rendered = registry.render_prometheus()
        assert 'h_bucket{le="0.01"} 1' in rendered
        assert 'h_bucket{le="0.1"} 2' in rendered
        assert 'h_bucket{le="1"} 3' in rendered
        assert 'h_bucket{le="+Inf"} 4' in rendered
        assert "h_count 4" in rendered

    def test_quantiles_interpolate_within_bucket(self, registry):
        histogram = registry.histogram("q", "q", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)
        p50 = histogram.quantile(0.5)
        assert 1.0 <= p50 <= 2.0

    def test_quantile_of_empty_histogram_is_none(self, registry):
        histogram = registry.histogram("e", "e")
        assert histogram.quantile(0.5) is None

    def test_default_buckets_cover_latency_range(self):
        assert LATENCY_BUCKETS[0] <= 0.001
        assert LATENCY_BUCKETS[-1] >= 1.0
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


# ----------------------------------------------------------------------
# Registry: idempotence, validation, enable/disable
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registering_same_family_twice_returns_same_object(self, registry):
        first = registry.counter("c_total", "c", labelnames=("op",))
        second = registry.counter("c_total", "c", labelnames=("op",))
        assert first is second

    def test_registering_same_name_as_other_type_fails(self, registry):
        registry.counter("x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "x")

    def test_wrong_label_arity_raises(self, registry):
        counter = registry.counter("l_total", "l", labelnames=("op", "status"))
        with pytest.raises(ValueError):
            counter.inc(("only-one",))

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("n_total", "n")
        counter.inc()
        assert counter.value() == 0
        registry.enable()
        counter.inc()
        assert counter.value() == 1
        registry.disable()
        counter.inc()
        assert counter.value() == 1

    def test_reset_clears_every_child(self, registry):
        counter = registry.counter("r_total", "r", labelnames=("op",))
        counter.inc(("a",))
        registry.reset()
        assert counter.value(("a",)) == 0

    def test_bound_children_feed_the_family_they_came_from(self, registry):
        counter = registry.counter("c_total", "help", ("lane",))
        histogram = registry.histogram("h_seconds", "help", ("state",))
        bound_counter = counter.bind(("loop",))
        bound_histogram = histogram.bind(("write",))
        bound_counter.inc()
        counter.inc(("loop",), 2)
        bound_histogram.observe(0.002)
        assert counter.value(("loop",)) == 3
        assert histogram.count(("write",)) == 1
        registry.reset()  # bound children survive a clear...
        bound_counter.inc(5)
        assert counter.value(("loop",)) == 5
        registry.disable()  # ...and respect the switch
        bound_counter.inc()
        bound_histogram.observe(1.0)
        assert counter.value(("loop",)) == 5 and histogram.count(("write",)) == 0
        with pytest.raises(ValueError):
            counter.bind(("loop", "extra"))

    def test_non_string_labels_are_stringified(self, registry):
        counter = registry.counter("s_total", "s", labelnames=("code",))
        counter.inc((404,))
        assert counter.value(("404",)) == 1


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheusRendering:
    def test_help_and_type_headers(self, registry):
        registry.counter("req_total", "requests served", labelnames=("op",)).inc(("a",))
        rendered = registry.render_prometheus()
        assert "# HELP req_total requests served" in rendered
        assert "# TYPE req_total counter" in rendered
        assert 'req_total{op="a"} 1' in rendered
        assert rendered.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("esc_total", "esc", labelnames=("v",))
        counter.inc(('quote " backslash \\ newline \n',))
        rendered = registry.render_prometheus()
        assert '\\"' in rendered
        assert "\\\\" in rendered
        assert "\\n" in rendered
        # The raw newline must not appear inside the label value.
        for line in rendered.splitlines():
            if line.startswith("esc_total{"):
                assert line.endswith("} 1")

    def test_snapshot_shape(self, registry):
        registry.counter("a_total", "a", labelnames=("op",)).inc(("x",))
        registry.histogram("b_seconds", "b").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["a_total"]["type"] == "counter"
        assert snapshot["a_total"]["values"]
        histogram_entry = snapshot["b_seconds"]["values"][0]
        assert histogram_entry["count"] == 1
        assert "p95" in histogram_entry

    def test_merge_label_filters_selects_families(self, registry):
        registry.counter("keep_total", "k").inc()
        registry.counter("drop_total", "d").inc()
        snapshot = registry.snapshot()
        filtered = merge_label_filters(snapshot, ["keep_total"])
        assert "keep_total" in filtered
        assert "drop_total" not in filtered
