"""Unit tests for the metric primitives, registry and exporters."""

import bisect
import inspect
import math
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.telemetry import metrics
from repro.telemetry import (
    NOOP_REGISTRY,
    OVERFLOW_KEY,
    Counter,
    Histogram,
    Registry,
    label_key,
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

    def test_cardinality_overflow(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_MAX_SERIES", 3)
        c = Counter("n")
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
    with mock.patch.object(metrics, "DEFAULT_MAX_SERIES", max_series):
        return _feed_capped(runs, batched)


def _feed_capped(runs, batched):
    histogram = Histogram("stage_seconds", buckets=RUN_BOUNDS)
    for run in runs:
        if batched:
            keys = [key for key, _ in run]
            values = [math.nan if value is None else value for _, value in run]
            histogram._observe_run(keys, values)
        else:
            for key, value in run:
                if value is not None:
                    histogram._observe((key,), value)
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


class PerObservation:
    """The reference model: one histogram updated the way it was before it
    buffered — each observation folded into its cell at once, in arrival
    order, the series budget applied per update."""

    def __init__(self, bounds, max_series):
        self.bounds = bounds
        self.max_series = max_series
        self.series = {}
        self.overflow_count = 0

    def observe(self, key, value):
        if value != value:
            return
        cell = self.series.get(key)
        if cell is None:
            if len(self.series) >= self.max_series:
                self.overflow_count += 1
                key = OVERFLOW_KEY
                cell = self.series.get(key)
            if cell is None:
                cell = self.series[key] = {
                    "buckets": [0] * (len(self.bounds) + 1),
                    "count": 0, "sum": 0.0, "min": None, "max": None,
                }
        cell["buckets"][bisect.bisect_left(self.bounds, value)] += 1
        cell["count"] += 1
        cell["sum"] += value
        if cell["min"] is None or value < cell["min"]:
            cell["min"] = value
        if cell["max"] is None or value > cell["max"]:
            cell["max"] = value

    def snapshot_series(self):
        return [
            {
                "labels": dict(key),
                "count": cell["count"],
                "sum": cell["sum"],
                "min": cell["min"],
                "max": cell["max"],
                "buckets": [
                    {"le": bound, "count": cell["buckets"][i]}
                    for i, bound in enumerate(self.bounds)
                ]
                + [{"le": "+Inf", "count": cell["buckets"][-1]}],
            }
            for key, cell in sorted(self.series.items())
        ]

    def quantile(self, q, key):
        """The Prometheus bucket-boundary estimate, over the model's cell."""
        cell = self.series.get(key)
        if not cell or not cell["count"]:
            return 0.0
        target, cumulative = q * cell["count"], 0
        for i, bound in enumerate(self.bounds):
            if cell["buckets"][i]:
                cumulative += cell["buckets"][i]
                if cumulative >= target:
                    return bound
        return cell["max"]


def exact(value):
    """``value`` with every float spelled out bit for bit (``-0.0``, NaN and
    the last ulp of a sum all distinguishable)."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return (type(value).__name__, value)


FOLD_BOUNDS = (-1.0, 0.0, 1.0, 100.0)
#: Label sets by index; the last is the overflow series' own key.
FOLD_LABELS = ({}, {"stage": "a"}, {"stage": "b"}, {"op": "x", "t": "y"}, {"stage": "c"},
               dict(OVERFLOW_KEY))
fold_values = st.one_of(
    st.sampled_from(FOLD_BOUNDS),
    st.sampled_from((math.inf, -math.inf, math.nan, -0.0, 0.0, 1, 3)),
    st.floats(allow_nan=False, allow_infinity=False),
)
fold_steps = st.lists(
    st.one_of(
        st.tuples(st.just("bound"), st.integers(0, len(FOLD_LABELS) - 1), fold_values),
        st.tuples(st.just("keyword"), st.integers(0, len(FOLD_LABELS) - 1), fold_values),
        st.tuples(
            st.just("run"),
            st.lists(
                st.tuples(
                    st.integers(0, len(FOLD_LABELS) - 1), st.one_of(st.none(), fold_values)
                ),
                max_size=7,
            ),
        ),
        st.tuples(st.just("read"), st.integers(0, len(FOLD_LABELS) - 1)),
    ),
    max_size=80,
)


class TestBufferedFold:
    """Updates buffer and fold on read (or when the buffer fills); every
    read must still say exactly what one update per observation says."""

    @settings(max_examples=300, deadline=None)
    @given(
        steps=fold_steps,
        buffered=st.sampled_from((1, 2, 3, 7, metrics.BUFFERED_UPDATES)),
        max_series=st.sampled_from((512, 3, 1)),
    )
    def test_any_interleaving_reads_as_per_observation(self, steps, buffered, max_series):
        with mock.patch.object(metrics, "BUFFERED_UPDATES", buffered), mock.patch.object(
            metrics, "DEFAULT_MAX_SERIES", max_series
        ):
            histogram = Histogram("h", buckets=FOLD_BOUNDS)
            model = PerObservation(FOLD_BOUNDS, max_series)
            keys = [label_key(labels) for labels in FOLD_LABELS]
            children = [histogram.labels(**labels) for labels in FOLD_LABELS]
            for step in steps:
                if step[0] == "bound":
                    _, index, value = step
                    children[index].observe(value)
                    model.observe(keys[index], value)
                elif step[0] == "keyword":
                    _, index, value = step
                    histogram.observe(value, **FOLD_LABELS[index])
                    model.observe(keys[index], value)
                elif step[0] == "run":
                    run = step[1]
                    histogram._observe_run(
                        [keys[index] for index, _ in run],
                        [math.nan if value is None else value for _, value in run],
                    )
                    for index, value in run:
                        if value is not None:
                            model.observe(keys[index], value)
                else:
                    self._reads_agree(histogram, model, FOLD_LABELS[step[1]])
            for labels in FOLD_LABELS + ({"stage": "never"},):
                self._reads_agree(histogram, model, labels)
            assert exact(histogram.snapshot()["series"]) == exact(model.snapshot_series())
            assert histogram.overflow_count == model.overflow_count

    @staticmethod
    def _reads_agree(histogram, model, labels):
        key = label_key(labels)
        cell = model.series.get(key)
        count = cell["count"] if cell else 0
        total = cell["sum"] if cell else 0.0
        assert histogram.count(**labels) == count
        assert exact(histogram.sum(**labels)) == exact(total)
        assert exact(histogram.mean(**labels)) == exact(total / count if count else 0.0)
        assert histogram.bucket_counts(**labels) == (
            cell["buckets"] if cell else [0] * (len(FOLD_BOUNDS) + 1)
        )
        for q in (0.0, 0.5, 0.99, 1.0):
            assert exact(histogram.quantile(q, **labels)) == exact(model.quantile(q, key))
        assert histogram.overflow_count == model.overflow_count

    def test_a_full_buffer_folds_without_a_read(self, monkeypatch):
        monkeypatch.setattr(metrics, "BUFFERED_UPDATES", 4)
        histogram = Histogram("h", buckets=(1.0,))
        observe = histogram.labels().observe
        for _ in range(4):
            observe(0.5)
        assert histogram._pending == 0
        assert histogram._series[()].count == 4
        observe(0.5)
        assert histogram._pending == 1

    @pytest.mark.parametrize("bad", [None, "0.5", 1j])
    def test_a_value_no_fold_can_take_fails_at_its_own_call(self, bad):
        histogram = Histogram("h", buckets=(1.0,))
        child = histogram.labels(op="x")
        child.observe(0.5)
        histogram._observe_run(STAGE_KEYS[:2], (2.0, 0.25))
        with pytest.raises(TypeError):
            child.observe(bad)
        with pytest.raises(TypeError):
            histogram.observe(bad, op="y")
        child.observe(0.75)
        # Nothing of the refused values was held: every other update reads
        # exactly, and the refused label set has no series.
        assert histogram.count(op="x") == 2
        assert histogram.sum(op="x") == 1.25
        assert histogram.bucket_counts(stage="a") == [0, 1]
        assert histogram.bucket_counts(stage="b") == [1, 0]
        assert histogram.count(op="y") == 0
        assert [s["labels"] for s in histogram.snapshot()["series"]] == [
            {"op": "x"}, {"stage": "a"}, {"stage": "b"},
        ]

    def test_reset_drops_what_is_buffered(self):
        histogram = Histogram("h", buckets=(1.0,))
        histogram.observe(0.5, op="x")
        histogram.reset()
        assert histogram.count(op="x") == 0
        assert histogram.snapshot()["series"] == []


class TestExactUnderThreads:
    """Eight threads observe, hand over runs and trace while a ninth
    scrapes: the totals are exact, and no scrape sees half a run or a
    ``_count`` that disagrees with its buckets."""

    ROUNDS = 400
    RUN = (0.5, math.nan, 1.5, 3.0, 0.5)  # stage "b" did not run

    def test_totals_and_scrapes_are_exact(self):
        registry = Registry(clock=VirtualClock(0.0))
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        tracer = registry.tracer()
        bound = histogram.labels(worker="shared").observe
        stop = threading.Event()
        problems = []

        def work():
            for _ in range(self.ROUNDS):
                histogram._observe_run(STAGE_KEYS, list(self.RUN))
                bound(1.5)
                histogram.observe(0.25, worker="keyword")
                with tracer.span("root"):
                    with tracer.span("child"):
                        pass

        def scrape():
            while not stop.is_set():
                snapshot = registry.snapshot()
                (metric,) = snapshot["histograms"]
                counts = {}
                for series in metric["series"]:
                    buckets = sum(bucket["count"] for bucket in series["buckets"])
                    if buckets != series["count"]:
                        problems.append(("torn", series))
                    counts[tuple(sorted(series["labels"].items()))] = series["count"]
                run = {counts.get((("stage", s),), 0) for s in "acde"}
                if len(run) != 1:
                    problems.append(("half a run", counts))

        workers = [threading.Thread(target=work) for _ in range(8)]
        scraper = threading.Thread(target=scrape)
        scraper.start()
        _switching_fast(workers)
        stop.set()
        scraper.join(timeout=120.0)
        assert problems == []
        total = 8 * self.ROUNDS
        assert [histogram.count(stage=s) for s in "abcde"] == [total, 0, total, total, total]
        assert histogram.bucket_counts(stage="d") == [0, 0, total]
        assert histogram.sum(stage="c") == 1.5 * total
        assert histogram.count(worker="shared") == total
        assert histogram.count(worker="keyword") == total
        assert tracer.spans_started == 2 * total


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
