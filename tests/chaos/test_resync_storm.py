"""The resync-storm SLA proof: interactive p99 stays flat while a 10k-item
batch backfill drains through the ingestion queue.

Three claims, each its own test class:

* **Isolation** — interactive login p99 under the storm is within 1.5x of
  the idle baseline plan on the same rig (in practice it is identical:
  capped promotion means batch never outranks interactive);
* **Drain** — the backfill fully completes inside its fault window (the
  ``backfill_drain`` event reports zero remaining, and a nonzero remainder
  would be an invariant violation);
* **Shed order** — under forced admission overload the queue sheds
  ``batch`` before ``critical``, end to end through the deployment's own
  :class:`TokenBucketLimiter`.
"""

import json

import pytest

from repro.chaos import WorkloadConfig, run_chaos, shipped_plans

from .conftest import report_for


@pytest.fixture(scope="module")
def storm_report():
    return run_chaos(shipped_plans()["resync-storm"], WorkloadConfig(seed=101))


@pytest.fixture(scope="module")
def idle_report():
    # Same workload, same rig, no backfill: the latency baseline.
    return run_chaos(shipped_plans()["baseline"], WorkloadConfig(seed=101))


class TestInteractiveIsolation:
    def test_p99_within_budget_of_idle_baseline(self, storm_report, idle_report):
        idle_p99 = idle_report.interactive_p99()
        storm_p99 = storm_report.interactive_p99()
        assert idle_p99 > 0.0, "queue service cost must make latency measurable"
        assert storm_p99 <= idle_p99 * 1.5

    def test_latencies_cover_the_storm_window(self, storm_report):
        # The workload kept logging in during [200, 1700): the isolation
        # claim is vacuous unless honest attempts landed inside the window.
        assert len(storm_report.interactive_latencies()) >= 50

    def test_p99_reported_in_summary(self, storm_report):
        summary = storm_report.summary()
        assert summary["interactive_p99_seconds"] == round(
            storm_report.interactive_p99(), 6
        )


class TestBackfillDrain:
    def _drain_event(self, report):
        events = [
            json.loads(line)
            for line in report.event_lines
        ]
        drains = [e for e in events if e["kind"] == "backfill_drain"]
        assert len(drains) == 1
        return drains[0], events

    def test_backfill_fully_drains_inside_window(self, storm_report):
        drain, events = self._drain_event(storm_report)
        assert drain["remaining"] == 0
        assert drain["completed"] == 10_000
        starts = [e for e in events if e["kind"] == "backfill_start"]
        assert starts and starts[0]["items"] == 10_000
        assert starts[0]["depth"] >= 10_000

    def test_no_invariant_violations(self, storm_report):
        assert storm_report.invariant_violations() == []
        assert storm_report.backfill_violations() == []

    def test_undrained_backfill_is_a_violation(self):
        # Choke the pump so the window closes with work still queued: the
        # report must call that out rather than quietly passing.
        config = WorkloadConfig(seed=101, pump_interval=1.0, pump_items=1)
        report = run_chaos(shipped_plans()["resync-storm"], config)
        violations = report.backfill_violations()
        assert violations
        assert any("backfill" in v for v in violations)
        assert report.invariant_violations() != []

    def test_in_shipped_invariant_catalogue(self, seed):
        # resync-storm rides the same 4-invariant suite as every plan.
        report = report_for("resync-storm", seed)
        assert report.false_accepts() == []
        assert report.availability() >= report.plan.availability_floor


class TestDeterminism:
    def test_same_seed_same_event_log(self, storm_report):
        fresh = run_chaos(shipped_plans()["resync-storm"], WorkloadConfig(seed=101))
        assert fresh.event_lines == storm_report.event_lines
        assert fresh.digest() == storm_report.digest()


class TestForcedOverloadShedOrder:
    def test_batch_shed_before_critical_through_deployment_limiter(self):
        import random

        from repro.common.clock import VirtualClock
        from repro.core import MFACenter
        from repro.ingest import IngestQueue, PriorityClass
        from repro.policy import RateLimitConfig, TokenBucketLimiter

        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(11), ingest=True)
        center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        # Rebuild the deployment's queue with a starved admission bucket:
        # the overload knob, everything else identical.
        limiter = TokenBucketLimiter(RateLimitConfig(rate=0.1, burst=1.0), clock=clock)
        queue = IngestQueue(
            center.ingest_queue._runner, center.ingest_queue.config,
            clock=clock, limiter=limiter,
        )
        assert queue.submit_item(("alice", code), PriorityClass.BATCH).result().ok
        # Bucket now empty: batch is refused at the door...
        refused = queue.submit_item(("alice", code), PriorityClass.BATCH).result()
        assert not refused.ok and "admission throttled" in refused.reason
        # ...while critical and interactive still get through.
        assert queue.submit_item(("alice", code), PriorityClass.CRITICAL).result().ok
        assert queue.submit_item(("alice", code), PriorityClass.INTERACTIVE).result().ok
        snap = queue.snapshot()
        assert snap["classes"]["batch"]["shed"] == 1
        assert snap["classes"]["critical"]["shed"] == 0
        assert snap["classes"]["interactive"]["shed"] == 0
