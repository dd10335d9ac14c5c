"""Bound label children: ``instrument.labels(...)`` resolves the label set
once; every update after that is the instrument's private update and
nothing else.

Three things are pinned here: the child and the keyword form are one
implementation (any event sequence lands in the same series either way,
cap, overflow and ``reset()`` included); what an update costs, counted the
way loginbench counts (``cProfile`` call counts); and that one validate on
the production-shaped center normalizes no label set at all while still
moving every series it moved before children existed.
"""

import cProfile
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import _status_scenario
from repro.telemetry import metrics
from repro.telemetry import (
    NOOP_REGISTRY,
    OVERFLOW_KEY,
    Counter,
    Histogram,
    Registry,
    render_text,
)

# -- one implementation -----------------------------------------------------------

#: A small pool, so sequences revisit series; two entries spell one label
#: set in two keyword orders.
LABEL_POOL = (
    {},
    {"a": "x"},
    {"a": "y"},
    {"a": "x", "b": 1},
    {"b": 1, "a": "x"},
    {"b": 2},
    {"c": "z"},
)
#: (instrument, method); the instrument names are the registry's.
UPDATES = (
    ("events_total", "inc"),
    ("seconds", "observe"),
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
events = st.lists(
    st.tuples(
        st.sampled_from(UPDATES),
        st.integers(0, len(LABEL_POOL) - 1),
        st.one_of(finite, st.just(float("nan"))),
        st.booleans(),  # the interleaved run's choice: bound child or keywords
    ),
    max_size=60,
)


def _drive(sequence, choose_bound, max_series, reset_at):
    """Run ``sequence`` on a fresh registry; ``choose_bound(event_flag)``
    picks the calling form per event.  Children are all bound up front and
    kept across the reset."""
    with mock.patch.object(metrics, "DEFAULT_MAX_SERIES", max_series):
        return _drive_capped(sequence, choose_bound, reset_at)


def _drive_capped(sequence, choose_bound, reset_at):
    registry = Registry()
    instruments = {
        "events_total": registry.counter("events_total", "events"),
        "seconds": registry.histogram("seconds", "a latency", buckets=(0.0, 1.0, 100.0)),
    }
    children = {
        (name, index): instrument.labels(**labels)
        for name, instrument in instruments.items()
        for index, labels in enumerate(LABEL_POOL)
    }
    for position, ((name, method), index, value, flag) in enumerate(sequence):
        if position == reset_at:
            registry.reset()
        if method == "inc":
            # Only a histogram has a rule for NaN; a counter only goes up.
            value = 1.0 if value != value else abs(value)
        if choose_bound(flag):
            getattr(children[name, index], method)(value)
        else:
            getattr(instruments[name], method)(value, **LABEL_POOL[index])
    snapshot = registry.snapshot()
    overflow = {name: i.overflow_count for name, i in instruments.items()}
    return snapshot, render_text(snapshot), overflow


@settings(max_examples=150, deadline=None)
@given(
    sequence=events,
    max_series=st.sampled_from((512, 3)),
    reset_at=st.one_of(st.none(), st.integers(0, 60)),
)
def test_children_and_keywords_are_one_implementation(sequence, max_series, reset_at):
    keyword = _drive(sequence, lambda flag: False, max_series, reset_at)
    bound = _drive(sequence, lambda flag: True, max_series, reset_at)
    mixed = _drive(sequence, lambda flag: flag, max_series, reset_at)
    assert bound == keyword
    assert mixed == keyword


def test_keyword_order_does_not_matter():
    counter = Counter("n")
    counter.labels(a=1, b=2).inc()
    counter.labels(b=2, a=1).inc()
    counter.inc(b=2, a=1)
    assert counter.series() == {(("a", "1"), ("b", "2")): 3.0}


def test_binding_creates_no_series():
    registry = Registry()
    registry.counter("c").labels(result="never")
    registry.histogram("h").labels(stage="never")
    snapshot = registry.snapshot(include_traces=False)
    for kind in ("counters", "histograms"):
        assert [metric["series"] for metric in snapshot[kind]] == [[]]
    assert "never" not in render_text(snapshot)


def test_child_bound_before_reset_keeps_working():
    registry = Registry()
    child = registry.histogram("h", buckets=(1.0,)).labels(op="x")
    child.observe(0.5)
    registry.reset()
    assert registry.histogram("h").count(op="x") == 0
    child.observe(0.5)
    child.observe(2.0)
    assert registry.histogram("h").bucket_counts(op="x") == [1, 1]


def test_cap_applies_to_every_update_of_a_child(monkeypatch):
    monkeypatch.setattr(metrics, "DEFAULT_MAX_SERIES", 2)
    counter = Counter("n")
    counter.inc(k="a")
    late = counter.labels(k="late")  # bound while there was still room
    counter.inc(k="b")
    for _ in range(3):
        late.inc()
    assert counter.overflow_count == 3
    assert counter.series()[OVERFLOW_KEY] == 3.0
    assert counter.value(k="late") == 0.0
    monkeypatch.setattr(metrics, "DEFAULT_MAX_SERIES", 1)
    histogram = Histogram("h")
    histogram.observe(1.0, k="a")
    histogram.labels(k="b").observe(1.0)
    histogram.labels(k="c").observe(1.0)
    assert histogram.overflow_count == 2
    assert histogram.count(__overflow__="true") == 2


def test_children_keep_each_kind_s_rules():
    with pytest.raises(ValueError):
        Counter("n").labels(k="v").inc(-1.0)
    with pytest.raises(ValueError):
        Counter("n").inc(-1.0, k="v")
    assert not hasattr(Counter("n").labels(), "set")


def test_noop_child_is_the_noop_singleton():
    instrument = NOOP_REGISTRY.histogram("h")
    assert instrument.labels(stage="x") is instrument
    instrument.labels(stage="x").observe(1.0)
    NOOP_REGISTRY.counter("c").labels().inc()


# -- under threads ----------------------------------------------------------------

THREADS = 8
UPDATES_PER_THREAD = 10_000


def test_child_updates_are_exact_under_threads():
    counter = Counter("n")
    histogram = Histogram("h", buckets=(1.0, 2.0))
    inc = counter.labels(worker="shared").inc
    observe = histogram.labels(worker="shared").observe

    def work(update, *args):
        for _ in range(UPDATES_PER_THREAD):
            update(*args)

    threads = [threading.Thread(target=work, args=(inc,)) for _ in range(THREADS)]
    threads += [threading.Thread(target=work, args=(observe, 1.5)) for _ in range(THREADS)]
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
    total = THREADS * UPDATES_PER_THREAD
    assert counter.value(worker="shared") == total
    assert histogram.count(worker="shared") == total
    assert histogram.bucket_counts(worker="shared") == [0, total, 0]
    assert histogram.sum(worker="shared") == 1.5 * total


# -- what an update costs -----------------------------------------------------------


def _calls(update, *args, **labels):
    """Interpreter calls inside one ``update(...)``, as loginbench's
    ``CallCounter`` counts them (less the profiler's own ``disable``)."""
    profile = cProfile.Profile()
    profile.enable()
    update(*args, **labels)
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats()) - 1


ONE_LABEL = {"stage": "replay_guard"}
FIVE_LABELS = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}


@pytest.mark.parametrize("labels", [{}, ONE_LABEL, FIVE_LABELS], ids=["0", "1", "5"])
@pytest.mark.parametrize("other_series", [0, 400])
def test_bound_update_cost_is_flat(labels, other_series):
    counter, histogram = Counter("c"), Histogram("h")
    for n in range(other_series):
        counter.inc(n=n)
        histogram.observe(n, n=n)
    inc = counter.labels(**labels).inc
    observe = histogram.labels(**labels).observe
    for warm in (inc, observe):
        warm(1.0)  # steady state: the series exists
    assert _calls(inc) <= 2  # the update, the lock release
    assert _calls(observe, 0.02) <= 2  # the same: the bucket is found on read


def test_keyword_update_costs_no_more_than_it_did():
    counter, histogram = Counter("c"), Histogram("h")
    for warm in (counter.inc, histogram.observe):
        warm(1.0, **ONE_LABEL)
    # The counts of the implementation the children replaced.
    assert _calls(counter.inc, **ONE_LABEL) <= 9
    assert _calls(histogram.observe, 0.02, **ONE_LABEL) <= 13


# -- the measured path ---------------------------------------------------------------

#: What one warm, valid validate on the production-shaped center records —
#: ``Registry.snapshot()`` before and after, counts only — taken at the
#: commit before children existed (less the replica-ship count, which is
#: ``applied_lsn`` in ``status()``).  Since a success writes only the token
#: columns that differ, this warm one writes nothing: the
#: ``storage_op_seconds{op=update,table=tokens}`` observation and the
#: ``storage_wal_appends_total{op=update}`` count it used to move are gone.
ONE_VALIDATE = {
    ("authflow_stage_seconds", (("stage", "apply_outcome"),)): 1,
    ("authflow_stage_seconds", (("stage", "audit"),)): 1,
    ("authflow_stage_seconds", (("stage", "dispatch"),)): 1,
    ("authflow_stage_seconds", (("stage", "evaluate_policy"),)): 1,
    ("authflow_stage_seconds", (("stage", "replay_guard"),)): 1,
    ("authflow_stage_seconds", (("stage", "resolve_identity"),)): 1,
    ("ingest_wait_seconds", (("priority", "interactive"),)): 1,
    ("otp_validate_total", (("status", "ok"),)): 1,
    ("policy_decisions_total", (("action", "challenge"),)): 1,
    ("storage_op_seconds", (("op", "select"), ("table", "tokens"))): 1,
}


def _counts(registry):
    snapshot = registry.snapshot(include_traces=False)
    counts = {}
    for counter in snapshot["counters"]:
        for series in counter["series"]:
            counts[counter["name"], tuple(sorted(series["labels"].items()))] = series["value"]
    for histogram in snapshot["histograms"]:
        for series in histogram["series"]:
            counts[histogram["name"], tuple(sorted(series["labels"].items()))] = series["count"]
    return counts


def test_one_validate_normalizes_no_labels_and_moves_the_same_series():
    center, passed = _status_scenario(telemetry=True, shards=2, replicas=1, risk=True)
    assert passed
    center.create_user("guard", password="pw-guard")
    code = center.pair_training("guard")  # a static code: revalidates freely
    assert center.radius_backend.validate("guard", code).ok  # warms every cache
    before = _counts(center.telemetry)
    profile = cProfile.Profile()
    profile.enable()
    result = center.radius_backend.validate("guard", code)
    profile.disable()
    assert result.ok
    after = _counts(center.telemetry)
    moved = {key: after[key] - before.get(key, 0) for key in after}
    assert {key: delta for key, delta in moved.items() if delta} == ONE_VALIDATE
    # Of the metrics module, only the private updates ran: no label_key, no
    # sorted, no labels() — 13.59 label sets were normalized here per
    # validate before.  The pipeline's stage times are one batch update.
    entered = {
        entry.code.co_name
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.endswith("telemetry/metrics.py")
    }
    assert entered == {"_add", "_observe", "_observe_run"}
