"""An arrival at an idle queue runs on its caller's thread.

``IngestQueue.validate`` at an empty queue skips the ticket, the work
item and the heap round trip; a push there would have been popped straight
back by the same waiter, so the outcome must be exactly what
``submit(request).result()`` gives.  The differential below holds the two
paths to that, step by step, on twin queues; the rest pins what an idle
arrival must still do (queued work keeps its place, transient failures
retry) and what it must not (run work that ``submit`` queued).
"""

import sys
import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock, WallClock
from repro.common.errors import TransientBackendError
from repro.common.results import ValidateResult, ValidateStatus
from repro.ingest import IngestConfig, IngestQueue, PriorityClass
from repro.ingest import queue as queue_module
from repro.telemetry import Registry

START = "2016-10-05T09:00:00"

#: One step of a schedule: the runner's verdict for one request (with the
#: clock time it spends, or how many times it fails transiently first).
steps = st.one_of(
    st.tuples(
        st.sampled_from(["ok", "reject"]),
        st.sampled_from([0.0, 0.25, 3.0]),
        st.sampled_from(["424242", None]),
    ),
    st.tuples(
        st.just("transient"),
        st.integers(min_value=1, max_value=4),
        st.sampled_from(["424242", None]),
    ),
    st.tuples(st.just("boom"), st.just(0), st.sampled_from(["424242", None])),
)


def scripted_runner(clock, schedule):
    """``fn(user, code)`` playing request ``u<i>``'s part of ``schedule``."""
    tries = Counter()

    def runner(user, code):
        kind, arg, _ = schedule[int(user[1:])]
        tries[user] += 1
        if kind == "transient" and tries[user] <= arg:
            raise TransientBackendError(f"blip {tries[user]}")
        if kind == "boom":
            raise RuntimeError("runner bug")
        if kind in ("ok", "reject"):
            clock.advance(arg)
        status = ValidateStatus.REJECT if kind == "reject" else ValidateStatus.OK
        return ValidateResult(status, reason=f"{kind}:{user}:{code}")

    return runner


def twin(schedule, cost, telemetry):
    clock = VirtualClock.at(START)
    registry = Registry(clock=clock) if telemetry else None
    queue = IngestQueue(
        scripted_runner(clock, schedule),
        IngestConfig(service_cost_seconds=cost),
        clock=clock,
        telemetry=registry,
    )
    return queue, clock, registry


class TestSameOutcomeAsSubmit:
    @settings(deadline=None, max_examples=150)
    @given(
        schedule=st.lists(steps, min_size=1, max_size=12),
        cost=st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=1.0)),
        telemetry=st.booleans(),
    )
    def test_call_matches_submit_then_result(self, schedule, cost, telemetry):
        called, called_clock, called_registry = twin(schedule, cost, telemetry)
        ticketed, ticketed_clock, ticketed_registry = twin(schedule, cost, telemetry)
        for i, (_, _, code) in enumerate(schedule):
            user = f"u{i}"
            assert called.validate(user, code) == ticketed.submit((user, code)).result()
            assert called.snapshot() == ticketed.snapshot()
            assert called_clock.now() == ticketed_clock.now()
        if telemetry:
            assert (
                called_registry.snapshot(include_traces=False)
                == ticketed_registry.snapshot(include_traces=False)
            )

    def test_an_idle_arrival_never_enters_the_heap(self):
        clock = VirtualClock.at(START)
        queue = IngestQueue(scripted_runner(clock, [("ok", 0.0, "1")]), clock=clock)
        queue.submit = None  # the idle path must not reach it
        assert queue.validate("u0", "1").ok
        lane = queue.snapshot()["classes"]["interactive"]
        assert (lane["submitted"], lane["completed"], lane["sla_hits"]) == (1, 1, 1)
        assert lane["max_wait_seconds"] == 0.0


class TestRetryWaitAfterSpentTime:
    """A retry's wait counts from its first admission.  An idle arrival
    reads no clock when it arrives, so with no service cost its requeued
    item is stamped at the failure instant: the time the runner spent
    before failing is in the retry's wait through ``submit`` and not
    through ``validate``.  With a cost, the clock read beside its charge is
    the arrival instant and the two paths agree exactly."""

    @staticmethod
    def spends_then_fails_once(clock):
        tries = Counter()

        def runner(user, code):
            tries[user] += 1
            clock.advance(0.25)
            if tries[user] == 1:
                raise TransientBackendError("blip")
            return ValidateResult(ValidateStatus.OK, reason=user)

        return runner

    def twins(self, cost):
        queues = []
        for _ in range(2):
            clock = VirtualClock.at(START)
            queues.append(
                IngestQueue(
                    self.spends_then_fails_once(clock),
                    IngestConfig(service_cost_seconds=cost),
                    clock=clock,
                )
            )
        called, ticketed = queues
        assert called.validate("u0", "1") == ticketed.submit(("u0", "1")).result()
        return called.snapshot(), ticketed.snapshot()

    def test_with_a_service_cost_the_paths_agree(self):
        called, ticketed = self.twins(0.125)
        assert called == ticketed
        assert called["classes"]["interactive"]["max_wait_seconds"] == 0.125 + 0.25 + 0.5

    def test_without_one_call_leaves_the_failed_attempt_out(self):
        called, ticketed = self.twins(0.0)
        lane = called["classes"]["interactive"]
        ticketed_lane = ticketed["classes"]["interactive"]
        assert ticketed_lane["max_wait_seconds"] == 0.25 + 0.5
        assert lane["max_wait_seconds"] == 0.5
        for snap in (lane, ticketed_lane):
            for key in ("max_wait_seconds", "mean_wait_seconds", "oldest_age_seconds"):
                del snap[key]
        assert lane == ticketed_lane
        assert called["completed_total"] == ticketed["completed_total"] == 1
        assert called["retry_total"] == ticketed["retry_total"] == 1


class TestBusyQueue:
    """Queued work keeps its place: an arrival behind it takes ``submit``'s
    path and drains in service order until its own request is done."""

    def test_queued_interactive_runs_first_and_queued_batch_waits(self):
        clock = VirtualClock.at(START)
        served = []

        def recorder(user, code):
            served.append(user)
            return ValidateResult(ValidateStatus.OK, reason=user)

        queue = IngestQueue(recorder, clock=clock)
        queue.submit(("batch", "1"), PriorityClass.BATCH)
        queue.submit(("bob", "1"))
        assert queue.validate("alice", "1").reason == "alice"
        assert served == ["bob", "alice"]
        assert queue.depth() == 1  # the batch item is still queued
        assert queue.pump() == 1 and served[-1] == "batch"

    def test_an_arrival_behind_a_backoff_is_not_idle(self, monkeypatch):
        """A retry backing off is queued work: the next arrival queues too
        (and, ready first, is served first), leaving the retry its backoff."""
        monkeypatch.setattr(queue_module, "RETRY_BASE_DELAY", 1.0)
        clock = VirtualClock.at(START)
        schedule = [("transient", 1, "1"), ("ok", 0.0, "1")]
        queue = IngestQueue(scripted_runner(clock, schedule), clock=clock)
        retry = queue.submit(("u0", "1"))
        assert queue.pump(max_items=1) == 1  # fails once: now backing off
        assert queue.depth() == 1 and not retry.done()
        queued = []
        submit = queue.submit
        queue.submit = lambda request: queued.append(request) or submit(request)
        start = clock.now()
        assert queue.validate("u1", "1").ok
        assert queued == [("u1", "1")]
        assert queue.depth() == 1 and clock.now() == start
        assert retry.result().ok and clock.now() == start + 1.0


class TestThreadedCallers:
    def test_every_call_returns_and_every_retry_counts(self, monkeypatch):
        """8 threads x 50 validates on a wall clock; every tenth call fails
        transiently once, so some arrivals find the queue busy with a
        backoff and take the ticket path beside the idle ones."""
        monkeypatch.setattr(queue_module, "RETRY_BASE_DELAY", 0.001)
        monkeypatch.setattr(queue_module, "RETRY_MAX_DELAY", 0.001)
        tries = Counter()
        tries_lock = threading.Lock()

        def runner(user, code):
            with tries_lock:
                tries[user] += 1
                first = tries[user] == 1
            if first and int(code) % 10 == 0:
                raise TransientBackendError("blip")
            return ValidateResult(ValidateStatus.OK, reason=user)

        queue = IngestQueue(runner, clock=WallClock())
        results = {}

        def caller(n):
            for i in range(50):
                results[n, i] = queue.validate(f"t{n}-{i}", f"{i:06d}")

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the idle check with service
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 400
        assert all(result.ok for result in results.values())
        snap = queue.snapshot()
        assert snap["submitted_total"] == snap["completed_total"] == 400
        assert snap["retry_total"] == 40
        assert snap["depth"] == queue.depth() == 0
