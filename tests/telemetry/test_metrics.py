"""Unit tests for the metric primitives, registry and exporters."""

import inspect
import json

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.telemetry import (
    NOOP_REGISTRY,
    OVERFLOW_KEY,
    Counter,
    Histogram,
    Registry,
    label_key,
    render_json,
    render_text,
    resolve_registry,
)


class TestLabelKey:
    def test_empty(self):
        assert label_key({}) == ()

    def test_order_independent(self):
        assert label_key({"a": 1, "b": 2}) == label_key({"b": 2, "a": 1})

    def test_values_stringified(self):
        assert label_key({"n": 3}) == (("n", "3"),)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("requests_total")
        c.inc(server="a")
        c.inc(2.0, server="a")
        c.inc(server="b")
        assert c.value(server="a") == 3.0
        assert c.value(server="b") == 1.0
        assert c.value(server="missing") == 0.0
        assert c.total() == 4.0

    def test_unlabeled_series(self):
        c = Counter("n")
        c.inc()
        c.inc()
        assert c.value() == 2.0

    def test_negative_increment_rejected(self):
        c = Counter("n")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("")

    def test_reset(self):
        c = Counter("n")
        c.inc(x="1")
        c.reset()
        assert c.total() == 0.0
        assert c.series() == {}

    def test_cardinality_overflow(self):
        c = Counter("n", max_series=3)
        for i in range(5):
            c.inc(user=f"u{i}")
        # Three real series plus the collapsed overflow series.
        series = c.series()
        assert len(series) == 4
        assert series[OVERFLOW_KEY] == 2.0
        assert c.overflow_count == 2
        # An existing label set keeps landing on its own series.
        c.inc(user="u0")
        assert c.value(user="u0") == 2.0

    def test_snapshot_shape(self):
        c = Counter("n", help="things")
        c.inc(kind="a")
        snap = c.snapshot()
        assert snap["name"] == "n"
        assert snap["kind"] == "counter"
        assert snap["help"] == "things"
        assert snap["series"] == [{"labels": {"kind": "a"}, "value": 1.0}]


class TestHistogram:
    def test_aggregates(self):
        h = Histogram("latency", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)
        assert h.mean() == pytest.approx(55.55 / 4)
        # One observation per bucket, one in +Inf.
        assert h.bucket_counts() == [1, 1, 1, 1]

    def test_bounds_sorted_and_required(self):
        h = Histogram("h", buckets=(5.0, 1.0))
        assert h.buckets == (1.0, 5.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_quantile_estimate(self):
        h = Histogram("h", buckets=(1.0, 2.0, 3.0))
        for v in (0.5, 1.5, 2.5):
            h.observe(v)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 3.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_skips_buckets_nothing_was_observed_in(self):
        h = Histogram("h")
        h.observe(5.0)
        # Not 0.001, the lowest bound: that bucket holds no observation.
        assert h.quantile(0.0) == 5.0
        assert h.quantile(1.0) == 5.0

    def test_bucket_is_the_first_bound_at_or_above_the_value(self):
        h = Histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (-1.0, 1.0, 1.0000001, 3.0, 3.5):
            h.observe(value)
        assert h.bucket_counts() == [2, 1, 1, 1]

    def test_nan_observation_is_dropped(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(float("nan"), op="x")  # before the series exists: creates none
        assert h.snapshot()["series"] == []
        h.observe(1.5, op="x")
        before = h.snapshot()
        h.observe(float("nan"), op="x")
        h.labels(op="x").observe(float("nan"))
        assert h.snapshot() == before
        assert h.mean(op="x") == 1.5

    def test_labeled_series_independent(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.5, op="a")
        h.observe(0.7, op="b")
        assert h.count(op="a") == 1
        assert h.count(op="b") == 1
        assert h.count() == 0

    def test_empty_series_zeroes(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.count() == 0
        assert h.sum() == 0.0
        assert h.mean() == 0.0
        assert h.quantile(0.5) == 0.0


class TestRegistry:
    def test_same_name_same_instrument(self):
        r = Registry(clock=VirtualClock(0.0))
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_mismatch_raises(self):
        r = Registry(clock=VirtualClock(0.0))
        r.counter("a")
        with pytest.raises(ConfigurationError):
            r.histogram("a")

    def test_snapshot_and_reset(self):
        clock = VirtualClock(0.0)
        r = Registry(clock=clock)
        r.counter("c").inc(x="1")
        r.histogram("h", buckets=(1.0,)).observe(0.5)
        with r.tracer().span("root"):
            clock.advance(1.0)
        snap = r.snapshot()
        assert snap["enabled"] is True
        assert [m["name"] for m in snap["counters"]] == ["c"]
        assert "gauges" not in snap
        assert [m["name"] for m in snap["histograms"]] == ["h"]
        assert len(snap["traces"]) == 1
        assert "traces" not in r.snapshot(include_traces=False)
        r.reset()
        assert r.counter("c").total() == 0.0
        assert r.tracer().last_trace() is None
        # Instruments survive a reset; only their series are zeroed.
        assert "c" in r.instruments()

    def test_resolve_registry(self):
        assert resolve_registry(None) is NOOP_REGISTRY
        assert resolve_registry(False) is NOOP_REGISTRY
        clock = VirtualClock(7.0)
        enabled = resolve_registry(True, clock=clock)
        assert enabled.enabled and enabled.clock is clock
        assert resolve_registry(enabled) is enabled


class TestNoopRegistry:
    def test_everything_is_free_and_silent(self):
        r = NOOP_REGISTRY
        assert r.enabled is False
        c = r.counter("anything")
        c.inc(label="x")
        assert c.value(label="x") == 0.0
        assert r.counter("a") is r.histogram("c")
        r.histogram("h").observe(3.0)
        with r.tracer().span("s") as span:
            span.annotate("k", "v")
            span.set_status("error")
        assert r.tracer().last_trace() is None
        assert r.instruments() == {}
        snap = r.snapshot()
        assert snap["enabled"] is False and snap["traces"] == []

    def test_noop_answers_every_name_an_instrument_does(self):
        """Code written against a real instrument or bound child runs
        unchanged with telemetry off: same public names, and every call a
        real one accepts the no-op accepts too."""
        noop = NOOP_REGISTRY.counter("anything")
        real = [Counter("c"), Histogram("h")]
        real += [instrument.labels(k="v") for instrument in real]
        for instrument in real:
            names = [n for n in dir(instrument) if not n.startswith("_")]
            assert names, instrument
            for name in names:
                theirs, ours = getattr(instrument, name), getattr(noop, name)
                if not callable(theirs):
                    assert not callable(ours), name
                    continue
                wanted = inspect.signature(theirs).parameters.values()
                offered = inspect.signature(ours).parameters
                keywords = any(p.kind is p.VAR_KEYWORD for p in offered.values())
                for parameter in wanted:
                    if parameter.kind is parameter.VAR_KEYWORD:
                        assert keywords, name
                        continue
                    assert parameter.name in offered, (name, parameter.name)
                    mine = offered[parameter.name]
                    assert (mine.default is mine.empty) == (
                        parameter.default is parameter.empty
                    ), (name, parameter.name)
        assert noop.quantile(0.99) == 0.0 and noop.bucket_counts() == [0]
        assert noop.snapshot()["series"] == []


class TestExporters:
    def _registry(self):
        r = Registry(clock=VirtualClock(0.0))
        r.counter("logins_total", "logins by result").inc(result="ok")
        r.counter("logins_total").inc(result="bad")
        r.histogram("lat", "latency", buckets=(1.0, 2.0)).observe(1.5)
        return r

    def test_text_format(self):
        text = render_text(self._registry().snapshot())
        assert "# HELP logins_total logins by result" in text
        assert "# TYPE logins_total counter" in text
        assert 'logins_total{result="ok"} 1' in text
        assert 'logins_total{result="bad"} 1' in text
        # Histogram buckets are cumulative, with the canonical suffixes.
        assert 'lat_bucket{le="1.0"} 0' in text
        assert 'lat_bucket{le="2.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 1.5" in text
        assert "lat_count 1" in text

    def test_text_disabled_marker(self):
        assert "telemetry disabled" in render_text(NOOP_REGISTRY.snapshot())

    def test_json_round_trip(self):
        snap = self._registry().snapshot()
        parsed = json.loads(render_json(snap))
        assert parsed["enabled"] is True
        assert parsed["counters"][0]["name"] == "logins_total"
