"""IngestQueue: admission, shedding, retries, and who runs the service loop."""

import threading

import pytest

from repro.common.clock import VirtualClock, WallClock
from repro.common.errors import TransientBackendError
from repro.common.results import ValidateResult, ValidateStatus
from repro.ingest import (
    IngestConfig,
    IngestQueue,
    PriorityClass,
    classify_request,
)
from repro.ingest import queue as queue_module
from repro.simcore import EventScheduler


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def ok_runner(user, code):
    return ValidateResult(ValidateStatus.OK, reason=f"{user}:{code}")


class TestClassification:
    def test_null_code_is_sms(self):
        assert classify_request(("alice", None)) is PriorityClass.SMS
        assert classify_request(("alice", "")) is PriorityClass.SMS

    def test_code_is_interactive(self):
        assert classify_request(("alice", "424242")) is PriorityClass.INTERACTIVE

    def test_explicit_priority_wins(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        queue.submit(("alice", "424242"), PriorityClass.BATCH)
        assert queue.snapshot()["classes"]["batch"]["submitted"] == 1


class TestInlineDrive:
    def test_single_submit_resolves_inline(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        result = queue.submit(("alice", "424242")).result()
        assert result.ok
        assert result.reason == "alice:424242"
        assert queue.depth() == 0

    def test_submit_many_preserves_order(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        tickets = [queue.submit([f"u{i}", "1"]) for i in range(10)]
        reasons = [t.result().reason for t in tickets]
        assert reasons == [f"u{i}:1" for i in range(10)]

    def test_higher_class_served_first(self, clock):
        served = []

        def recorder(user, code):
            served.append(user)
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(recorder, clock=clock)
        queue.submit(("batch1", "1"), PriorityClass.BATCH)
        queue.submit(("sms1", None))
        queue.submit(("inter1", "1"), PriorityClass.INTERACTIVE)
        queue.pump()
        assert served == ["inter1", "sms1", "batch1"]


class TestCallerRuns:
    """With no worker threads every waiter drains for itself."""

    def test_parked_waiter_does_not_strand_a_second_caller(self):
        entered, release = threading.Event(), threading.Event()

        def runner(user, code):
            if user == "a":
                entered.set()
                assert release.wait(5.0)
            return ValidateResult(ValidateStatus.OK, reason=user)

        queue = IngestQueue(runner, clock=WallClock())
        first = []
        a = threading.Thread(
            target=lambda: first.append(queue.submit(("a", "1")).result())
        )
        a.start()
        assert entered.wait(5.0)  # A's result() is parked inside the runner
        try:
            second = queue.submit(("b", "1")).result(timeout=2.0)
        finally:
            release.set()
            a.join(5.0)
        assert (first[0].reason, second.reason) == ("a", "b")
        assert queue.depth() == 0

    def test_waiter_picks_up_an_item_another_thread_put_back(self, monkeypatch):
        """A pump that held the item hands it back on a transient failure
        and leaves; the parked waiter must find it again."""
        monkeypatch.setattr(queue_module, "RETRY_BASE_DELAY", 0.01)
        monkeypatch.setattr(queue_module, "RETRY_MAX_DELAY", 0.01)
        entered, release = threading.Event(), threading.Event()
        attempts = []

        def runner(user, code):
            attempts.append(user)
            if len(attempts) == 1:
                entered.set()
                assert release.wait(5.0)
                raise TransientBackendError("blip")
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(runner, clock=WallClock())
        ticket = queue.submit(("b", "1"))
        pumper = threading.Thread(target=queue.pump, kwargs={"max_items": 1})
        pumper.start()
        assert entered.wait(5.0)  # the pump holds b's item; the heap is empty
        threading.Timer(0.1, release.set).start()
        assert ticket.result(timeout=2.0).ok
        pumper.join(5.0)
        assert attempts == ["b", "b"] and queue.depth() == 0

    def test_service_order_and_snapshot_shape_on_one_thread(self, clock):
        """Caller-runs on one thread is the old inline drive: one waiter
        drains everything ahead of its item, best class first, and the
        snapshot keys operators and ``loginbench`` read are all there."""
        served = []

        def recorder(user, code):
            served.append(user)
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(recorder, clock=clock)
        queue.submit(("batch1", "1"), PriorityClass.BATCH)
        queue.submit(("sms1", None))
        last = queue.submit(("batch2", "1"), PriorityClass.BATCH)
        queue.submit(("sms2", None))
        queue.submit(("inter1", "1"))
        queue.submit(("inter2", "1"))
        assert queue.depth() == 6
        assert last.result().ok
        assert served == ["inter1", "inter2", "sms1", "sms2", "batch1", "batch2"]
        snap = queue.snapshot()
        assert queue.depth() == snap["depth"] == 0
        assert (snap["submitted_total"], snap["completed_total"]) == (6, 6)
        assert snap["shed_total"] == 0
        assert set(snap["classes"]) == {c.value for c in PriorityClass}
        for lane in snap["classes"].values():
            assert {
                "rank", "depth", "oldest_age_seconds", "sla_seconds", "submitted",
                "completed", "shed", "rejected", "retries", "errors", "sla_hits",
                "sla_misses", "sla_hit_rate", "mean_wait_seconds", "max_wait_seconds",
            } == set(lane)


class TestThreadDrive:
    def test_workers_drain_submissions(self):
        """One burst of submits, drained in parallel by the plain threads
        that wait on it."""
        queue = IngestQueue(ok_runner, clock=WallClock())
        tickets = [queue.submit((f"u{i}", "1")) for i in range(50)]
        results = [None] * len(tickets)

        def waiter(slot):
            for index in range(slot, len(tickets), 3):
                results[index] = tickets[index].result(timeout=5.0)

        threads = [threading.Thread(target=waiter, args=(n,)) for n in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert all(r.ok for r in results)
        assert queue.snapshot()["completed_total"] == 50

    def test_worker_survives_runner_crash(self):
        def flaky(user, code):
            if user == "boom":
                raise RuntimeError("backend fell over")
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(flaky, clock=WallClock())
        results = {}

        def waiter():
            # The thread that services the crashing item goes on to the next.
            for user in ("boom", "fine"):
                results[user] = queue.submit((user, "1")).result(timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not results["boom"].ok and "backend error" in results["boom"].reason
        assert results["fine"].ok
        assert queue.snapshot()["error_total"] == 1


class TestSchedulerDrive:
    def test_attached_pump_drains_at_configured_rate(self, clock):
        scheduler = EventScheduler(clock=clock)
        queue = IngestQueue(ok_runner, clock=clock)
        start = clock.now()
        tickets = [queue.submit(("u", "1"), PriorityClass.BATCH) for _ in range(100)]
        handle = queue.attach(scheduler, interval=1.0, items_per_pump=10)
        scheduler.run_until(start + 10.0)
        handle.cancel()
        assert all(t.done() for t in tickets)
        assert queue.depth() == 0
        # 10 items/pump x 1 s interval: the drain took exactly 10 pumps.
        assert clock.now() == start + 10.0

    def test_attach_validates_rate(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        with pytest.raises(ValueError):
            queue.attach(EventScheduler(clock=clock), interval=0.0)


class TestRetries:
    def test_transient_failure_backs_off_then_succeeds(self, clock):
        attempts = []

        def flaky(user, code):
            attempts.append(clock.now())
            if len(attempts) < 3:
                raise TransientBackendError("shard momentarily gone")
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(flaky, clock=clock)  # 0.5 s base, 30 s cap
        start = clock.now()
        result = queue.submit(("alice", "1")).result()
        assert result.ok
        # Backoff doubles: attempt at t=0, retry +0.5 s, retry +1.0 s.
        assert [round(t - start, 3) for t in attempts] == [0.0, 0.5, 1.5]
        assert queue.snapshot()["retry_total"] == 2

    def test_retries_exhaust_to_reject(self, clock):
        def always_down(user, code):
            raise TransientBackendError("still gone")

        queue = IngestQueue(always_down, clock=clock)
        result = queue.submit(("alice", "1")).result()
        assert not result.ok
        assert "backend unavailable after 4 attempts" in result.reason

    def test_sla_measures_from_first_admission(self, clock, monkeypatch):
        monkeypatch.setattr(queue_module, "RETRY_BASE_DELAY", 2.0)
        calls = []

        def flaky(user, code):
            calls.append(user)
            if len(calls) == 1:
                raise TransientBackendError("blip")
            return ValidateResult(ValidateStatus.OK)

        queue = IngestQueue(flaky, clock=clock)
        assert queue.submit(("alice", "1")).result().ok
        lane = queue.snapshot()["classes"]["interactive"]
        # The retry waited 2 s against a 1 s SLA: hit on first service,
        # miss on the retry service — both measured from admission.
        assert lane["sla_hit_rate"] == 0.5
        assert lane["max_wait_seconds"] == 2.0


class TestBackpressure:
    def test_arrival_outranking_worst_evicts_it(self, clock):
        queue = IngestQueue(ok_runner, IngestConfig(max_depth=2), clock=clock)
        victims = [queue.submit(("b", "1"), PriorityClass.BATCH) for _ in range(2)]
        keeper = queue.submit(("sms", None))
        shed = victims[1].result()  # newest batch item died at admission
        assert not shed.ok and shed.reason.startswith("shed: evicted for sms")
        assert keeper.result().ok
        assert victims[0].result().ok

    def test_arrival_not_outranking_is_rejected(self, clock):
        queue = IngestQueue(ok_runner, IngestConfig(max_depth=2), clock=clock)
        queue.submit(("s1", None))
        queue.submit(("i1", "1"))
        refused = queue.submit(("b", "1"), PriorityClass.BATCH).result()
        assert not refused.ok and "queue full" in refused.reason
        snap = queue.snapshot()
        assert snap["classes"]["batch"]["rejected"] == 1
        assert snap["classes"]["batch"]["shed"] == 1

    def test_equal_rank_never_evicts(self, clock):
        queue = IngestQueue(ok_runner, IngestConfig(max_depth=1), clock=clock)
        first = queue.submit(("a", "1"), PriorityClass.INTERACTIVE)
        second = queue.submit(("b", "1"), PriorityClass.INTERACTIVE)
        refused = second.result()
        assert not refused.ok and "queue full" in refused.reason
        assert first.result().ok

    def test_overload_sheds_batch_before_interactive(self, clock):
        queue = IngestQueue(ok_runner, IngestConfig(max_depth=2), clock=clock)
        for _ in range(2):
            queue.submit(("b", "1"), PriorityClass.BATCH)
        # Full of batch work: more batch is refused at the door...
        refused = queue.submit(("b3", "1"), PriorityClass.BATCH).result()
        assert not refused.ok and "queue full" in refused.reason
        # ...while interactive evicts a batch item and is served.
        assert queue.submit(("i", "1")).result().ok
        snap = queue.snapshot()
        assert snap["classes"]["batch"]["shed"] == 2
        assert snap["classes"]["interactive"]["shed"] == 0


class TestSnapshot:
    def test_shape_matches_admin_conventions(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        queue.submit(("alice", "424242")).result()
        snap = queue.snapshot()
        assert snap["configured"] is True
        assert set(snap["classes"]) == {c.value for c in PriorityClass}
        lane = snap["classes"]["interactive"]
        assert lane["submitted"] == lane["completed"] == 1
        assert lane["sla_hit_rate"] == 1.0
        import json

        json.dumps(snap)  # must stay plain JSON-serializable

    def test_oldest_age_tracks_clock(self, clock):
        queue = IngestQueue(ok_runner, clock=clock)
        queue.submit(("u", "1"), PriorityClass.BATCH)
        clock.advance(7.0)
        lane = queue.snapshot()["classes"]["batch"]
        assert lane["depth"] == 1
        assert lane["oldest_age_seconds"] == 7.0


class TestQueuedBackend:
    """The queue in its back-end role: ``validate`` is the synchronous door."""

    def test_validate_routes_through_queue(self, clock):
        class Inner:
            def validate(self, user, code):
                return ValidateResult(ValidateStatus.OK, reason="inner")

        queue = IngestQueue(Inner().validate, clock=clock)
        assert queue.validate("alice", "1").reason == "inner"
        assert queue.snapshot()["completed_total"] == 1


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            IngestConfig(max_depth=0)
        with pytest.raises(ValueError):
            IngestConfig(service_cost_seconds=-1.0)
        assert 0 < queue_module.RETRY_BASE_DELAY <= queue_module.RETRY_MAX_DELAY


class TestConcurrentSubmitters:
    def test_many_threads_submit_one_queue_drains(self):
        queue = IngestQueue(ok_runner, clock=WallClock())
        results = []
        lock = threading.Lock()

        def submitter(n):
            tickets = [queue.submit((f"t{n}-{i}", "1")) for i in range(20)]
            resolved = [t.result(timeout=5.0) for t in tickets]
            with lock:
                results.extend(resolved)

        threads = [threading.Thread(target=submitter, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 80
        assert all(r.ok for r in results)
