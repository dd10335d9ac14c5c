"""Unit tests for the metric primitives, registry and exporters."""

import inspect
import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: A pipeline's stage label keys, five stages' worth.
STAGE_KEYS = tuple(label_key({"stage": name}) for name in ("a", "b", "c", "d", "e"))
RUN_BOUNDS = (0.0, 1.0, 100.0)
#: One slot of a run: a stage time (on a bound, past the last bound, +Inf,
#: anything finite), a NaN, or ``None`` — a stage that did not run, which
#: the batch sees as the NaN its run list starts with.
slots = st.one_of(
    st.sampled_from(RUN_BOUNDS),
    st.just(math.inf),
    st.just(math.nan),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
runs = st.lists(
    st.lists(st.tuples(st.sampled_from(STAGE_KEYS), slots), max_size=7), max_size=20
)


def _feed(runs, batched, max_series):
    histogram = Histogram("stage_seconds", buckets=RUN_BOUNDS, max_series=max_series)
    for run in runs:
        if batched:
            keys = [key for key, _ in run]
            values = [math.nan if value is None else value for _, value in run]
            histogram._observe_run(keys, values)
        else:
            for key, value in run:
                if value is not None:
                    histogram._observe(key, value)
    return histogram.snapshot(), histogram.overflow_count


def _switching_fast(threads):
    """Start and join ``threads`` with the interpreter switching threads
    every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestObserveRun:
    """``Histogram._observe_run``: a run's observations under one lock, and
    nothing else different from one ``_observe`` per value."""

    @settings(max_examples=300, deadline=None)
    @given(runs=runs, max_series=st.sampled_from((512, 3)))
    def test_a_batch_is_one_observe_per_value(self, runs, max_series):
        assert _feed(runs, True, max_series) == _feed(runs, False, max_series)

    def test_runs_from_threads_are_exact(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        values = [0.5, math.nan, 1.5, 3.0, 0.5]

        def work():
            for _ in range(200):
                h._observe_run(STAGE_KEYS, values)

        threads = [threading.Thread(target=work) for _ in range(8)]
        _switching_fast(threads)
        assert [h.count(stage=s) for s in "abcde"] == [1600, 0, 1600, 1600, 1600]
        assert h.bucket_counts(stage="c") == [0, 1600, 0]
        assert h.sum(stage="d") == 3.0 * 1600


class TestConsistentReads:
    """A read taken while other threads observe agrees with itself: every
    field of a cell is read under the lock an observation writes under."""

    def test_a_snapshot_agrees_with_itself(self):
        """50,000 scrapes while three threads observe 1.0 into one series:
        each scrape's ``_count``, ``_sum`` and buckets tell one story."""
        h = Histogram("h", buckets=(0.5, 2.0))
        h.observe(1.0)
        stop = threading.Event()
        torn = []

        def observe():
            while not stop.is_set():
                h.observe(1.0)

        def scrape():
            try:
                for _ in range(50_000):
                    (series,) = h.snapshot()["series"]
                    buckets = [bucket["count"] for bucket in series["buckets"]]
                    if buckets != [0, series["count"], 0] or series["sum"] != series["count"]:
                        torn.append(series)
            finally:
                stop.set()

        threads = [threading.Thread(target=observe) for _ in range(3)]
        _switching_fast(threads + [threading.Thread(target=scrape)])
        assert torn == []


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
