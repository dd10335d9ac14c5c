"""Per-class admission buckets: refill pressure in one class can never
starve another's admission.

``admission_rate`` builds one bucket per class, and there is no other
admission path: no shared pool a batch backfill could drain for everyone.
These tests pin the contract: batch overload leaves the critical bucket
full.
"""

import pytest

from repro.common.clock import VirtualClock
from repro.common.results import ValidateResult, ValidateStatus
from repro.ingest import IngestConfig, IngestQueue, PriorityClass


def ok_runner(user, code, source=None):
    return ValidateResult(ValidateStatus.OK)


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def make_queue(clock, rate=1.0, burst=2.0):
    return IngestQueue(
        ok_runner,
        IngestConfig(admission_rate=rate, admission_burst=burst),
        clock=clock,
    )


class TestPerClassBuckets:
    def test_batch_overload_leaves_critical_bucket_full(self, clock):
        queue = make_queue(clock)
        # Exhaust batch's own bucket and keep hammering: every refused
        # batch item would have drained a shared bucket to zero.
        queue.submit_many([("b", "1")] * 2, priority=PriorityClass.BATCH)
        for _ in range(10):
            refused = queue.submit_item(("b", "1"), PriorityClass.BATCH).result()
            assert not refused.ok and "admission throttled" in refused.reason
        snap = queue.snapshot()
        tokens = snap["admission"]["tokens_available"]
        assert tokens["batch"] == 0.0
        assert tokens["critical"] == 2.0  # untouched by batch pressure

    def test_critical_never_starved_by_batch_refill_pressure(self, clock):
        """The regression: batch arrivals outpace refill forever, yet
        critical admission keeps draining *its own* tokens (its bucket
        refills independently), not riding the non-sheddable exemption."""
        queue = make_queue(clock, rate=1.0, burst=1.0)
        for _ in range(50):
            queue.submit_item(("b", "1"), PriorityClass.BATCH)
            admitted = queue.submit_item(("c", "1"), PriorityClass.CRITICAL)
            assert admitted.result().ok
            clock.advance(1.0)  # refills both buckets by one token
        snap = queue.snapshot()
        # Critical admission came from its own bucket: with one token per
        # second and one critical arrival per second, the bucket cycles
        # without ever being bled dry by the concurrent batch stream.
        assert snap["classes"]["critical"]["shed"] == 0
        assert snap["classes"]["critical"]["completed"] == 50

    def test_interactive_and_sms_isolated_from_admin_sweeps(self, clock):
        queue = make_queue(clock, rate=0.5, burst=1.0)
        for _ in range(5):
            queue.submit_item(("a", "1"), PriorityClass.ADMIN)
        assert queue.submit_item(("i", "1"), PriorityClass.INTERACTIVE).result().ok
        assert queue.submit(("s", None)) is not None  # SMS classify path
        tokens = queue.snapshot()["admission"]["tokens_available"]
        assert tokens["admin"] == 0.0
        assert tokens["interactive"] == 0.0  # drained by its own arrival only
        assert tokens["batch"] == 1.0

    def test_snapshot_marks_mode(self, clock):
        admission = make_queue(clock).snapshot()["admission"]
        assert admission["rate"] == 1.0 and admission["burst"] == 2.0
        assert set(admission["tokens_available"]) == {c.value for c in PriorityClass}
        assert "admission" not in IngestQueue(ok_runner, clock=clock).snapshot()
