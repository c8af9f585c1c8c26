"""Unit tests for the metric registry and its instruments."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricRegistry, NULL_REGISTRY
from repro.obs.metrics import _NULL_HISTOGRAM


class TestInstruments:
    def test_gauge_goes_both_ways(self):
        # A collected gauge reads its source on every read.
        reg = MetricRegistry()
        level = [4.0]
        reg.gauge_func("g", "help", lambda: level[0])
        assert reg.value_of("g") == pytest.approx(4.0)
        level[0] = -2.0
        assert reg.value_of("g") == pytest.approx(-2.0)

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricRegistry()
        h = reg.histogram("h", "help", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 3.0, 7.0, 42.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(52.5)
        assert h.cumulative_counts() == (1, 2, 3, 4)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("empty", "help", buckets=())
        with pytest.raises(ObservabilityError):
            reg.histogram("unsorted", "help", buckets=(5.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        a = reg.histogram("x", "help", buckets=(1.0,), labels={"k": "v"})
        b = reg.histogram("x", "help", buckets=(1.0,), labels={"k": "v"})
        assert a is b

    def test_label_order_does_not_split_series(self):
        reg = MetricRegistry()
        reg.gauge_func("g", "help", lambda: 1.0, labels={"a": "1", "b": "2"})
        reg.gauge_func("g", "help", lambda: 2.0, labels={"b": "2", "a": "1"})
        assert reg.value_of("g", labels={"a": "1", "b": "2"}) == 2.0
        assert len(reg.collect()["g"]) == 1

    def test_kind_collision_raises(self):
        reg = MetricRegistry()
        reg.counter_func("x", "help", lambda: 1.0)
        with pytest.raises(ObservabilityError):
            reg.gauge_func("x", "help", lambda: 1.0)

    def test_inline_vs_collected_collision_raises(self):
        reg = MetricRegistry()
        reg.histogram("a", "help", buckets=(1.0,))
        with pytest.raises(ObservabilityError):
            reg.counter_func("a", "help", lambda: 1.0)
        reg.gauge_func("b", "help", lambda: 0.0)
        with pytest.raises(ObservabilityError):
            reg.histogram("b", "help", buckets=(1.0,))

    def test_collected_series_rebinds(self):
        # The HA layer re-registers a successor's subsystems after
        # failover, so a second registration must win.
        reg = MetricRegistry()
        reg.counter_func("c", "help", lambda: 1.0)
        reg.counter_func("c", "help", lambda: 9.0)
        assert reg.value_of("c") == pytest.approx(9.0)

    def test_value_of_unknown_series_raises(self):
        reg = MetricRegistry()
        reg.histogram("h", "help", buckets=(1.0,))
        with pytest.raises(ObservabilityError):
            reg.value_of("nope")
        with pytest.raises(ObservabilityError):
            reg.value_of("h")  # histograms have no scalar value

    def test_collect_reads_scalar_series_only(self):
        reg = MetricRegistry()
        reg.counter_func("c", "help", lambda: 3.0, labels={"k": "a"})
        reg.gauge_func("g", "help", lambda: 7.0)
        reg.histogram("h", "help", buckets=(1.0,)).observe(0.5)
        snap = reg.collect()
        assert snap["c"][(("k", "a"),)] == pytest.approx(3.0)
        assert snap["g"][()] == pytest.approx(7.0)
        assert "h" not in snap

    def test_names_are_sorted(self):
        reg = MetricRegistry()
        reg.counter_func("zz", "help", lambda: 0.0)
        reg.gauge_func("aa", "help", lambda: 0.0)
        assert reg.names() == ["aa", "zz"]
        assert reg.kind("zz") == "counter"
        assert reg.kind("missing") is None


class TestPrometheusText:
    def test_families_sorted_with_help_and_type(self):
        reg = MetricRegistry()
        reg.counter_func("b_total", "b count", lambda: 2.0)
        reg.gauge_func("a_level", "a level", lambda: 1.5)
        text = reg.to_prometheus_text()
        assert text.index("a_level") < text.index("b_total")
        assert "# HELP a_level a level" in text
        assert "# TYPE b_total counter" in text
        assert "b_total 2\n" in text
        assert "a_level 1.5\n" in text

    def test_labels_rendered_and_escaped(self):
        reg = MetricRegistry()
        reg.counter_func("c", "help", lambda: 1.0, labels={"k": 'say "hi"\n'})
        text = reg.to_prometheus_text()
        assert 'c{k="say \\"hi\\"\\n"} 1' in text

    def test_histogram_exposition(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        text = reg.to_prometheus_text()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 5.5" in text
        assert "lat_count 2" in text

    def test_export_is_deterministic(self):
        def build():
            reg = MetricRegistry()
            reg.counter_func("c", "help", lambda: 3.0, labels={"s": "x"})
            reg.gauge_func("g", "help", lambda: 2.25)
            reg.histogram("h", "help", buckets=(1.0,)).observe(0.1)
            return reg.to_prometheus_text()

        assert build() == build()

    def test_empty_registry_exports_empty_string(self):
        assert MetricRegistry().to_prometheus_text() == ""


class TestDisabledRegistry:
    def test_hands_out_shared_null_instruments(self):
        assert (
            NULL_REGISTRY.histogram("h", "help", buckets=(1.0,))
            is _NULL_HISTOGRAM
        )

    def test_null_instruments_ignore_updates(self):
        _NULL_HISTOGRAM.observe(5)
        assert _NULL_HISTOGRAM.count == 0

    def test_ignores_callbacks_and_registers_nothing(self):
        NULL_REGISTRY.counter_func("c", "help", lambda: 1.0)
        assert NULL_REGISTRY.names() == []
        assert NULL_REGISTRY.to_prometheus_text() == ""
