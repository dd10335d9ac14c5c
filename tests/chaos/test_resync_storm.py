"""The resync-storm SLA proof: interactive p99 stays flat while a 10k-item
batch backfill drains through the ingestion queue.

Three claims, each its own test class:

* **Isolation** — interactive login p99 under the storm is within 1.5x of
  the idle baseline plan on the same rig (in practice it is identical:
  capped promotion means batch never outranks interactive);
* **Drain** — the backfill fully completes inside its fault window (the
  ``backfill_drain`` event reports zero remaining, and a nonzero remainder
  would be an invariant violation);
* **Shed order** — with the deployment's queue full, it sheds ``batch``
  before ``critical``, end to end through the deployment's depth bound.
"""

import json

import pytest

from repro.chaos import run, runner

from .conftest import report_for


@pytest.fixture(scope="module")
def storm_report():
    return run("resync-storm", 101)


@pytest.fixture(scope="module")
def idle_report():
    # Same workload, same rig, no backfill: the latency baseline.
    return run("baseline", 101)


def p99(report):
    return report.summary()["honest"]["p99_latency_seconds"]


class TestInteractiveIsolation:
    def test_p99_within_budget_of_idle_baseline(self, storm_report, idle_report):
        assert p99(idle_report) > 0.0, "queue service cost must make latency measurable"
        assert p99(storm_report) <= p99(idle_report) * 1.5

    def test_latencies_cover_the_storm_window(self, storm_report):
        # The workload kept logging in during [200, 1700): the isolation
        # claim is vacuous unless honest attempts landed inside the window.
        inside = [r for r in storm_report.rows("attempt") if r["expect"] and 200 <= r["t"] < 1700]
        assert len(inside) >= 50

    def test_p99_reported_in_summary(self, storm_report):
        # Nearest rank over the honest interactive logins' latencies.
        samples = sorted(r["latency"] for r in storm_report.rows("attempt") if r["expect"])
        assert p99(storm_report) == samples[round(len(samples) * 0.99) - 1] > 0.0


class TestBackfillDrain:
    def _drain_event(self, report):
        events = [json.loads(line) for line in report.log.lines()]
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
        assert storm_report.violations() == []

    def test_undrained_backfill_is_a_violation(self, monkeypatch):
        # Choke the pump so the window closes with work still queued: the
        # report must call that out rather than quietly passing.
        monkeypatch.setattr(runner, "PUMP_INTERVAL", 1.0)
        monkeypatch.setattr(runner, "PUMP_ITEMS", 1)
        violations = run("resync-storm", 101).violations()
        assert any(v.startswith("undrained backfill") for v in violations)

    def test_in_shipped_invariant_catalogue(self, seed):
        # resync-storm rides the same judge as every scenario.
        summary = report_for("resync-storm", seed).summary()
        assert summary["violations"] == []
        assert summary["honest"]["availability"] >= summary["honest"]["floor"]


class TestDeterminism:
    def test_same_seed_same_event_log(self, storm_report):
        fresh = run("resync-storm", 101)
        assert fresh.log.lines() == storm_report.log.lines()
        assert fresh.log.digest() == storm_report.log.digest()


class TestForcedOverloadShedOrder:
    def test_batch_shed_before_critical_through_deployment_queue(self):
        import random

        from repro.common.clock import VirtualClock
        from repro.core import MFACenter
        from repro.ingest import PriorityClass

        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(11), ingest=True)
        center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        queue = center.ingest_queue
        # Nobody waits on the backfill, so it fills the queue to its bound.
        backfill = queue.submit_many(
            [("alice", code)] * queue.config.max_depth, priority=PriorityClass.BATCH
        )
        # More batch is refused at the door...
        refused = queue.submit_item(("alice", code), PriorityClass.BATCH).result()
        assert not refused.ok and "queue full" in refused.reason
        # ...while critical and interactive each evict a batch item and land.
        critical = queue.submit_item(("alice", code), PriorityClass.CRITICAL)
        interactive = queue.submit_item(("alice", code), PriorityClass.INTERACTIVE)
        assert critical.result().ok and interactive.result().ok
        snap = queue.snapshot()
        assert snap["classes"]["batch"]["shed"] == 3
        assert snap["classes"]["critical"]["shed"] == 0
        assert snap["classes"]["interactive"]["shed"] == 0
        assert sum(not t.done() for t in backfill) == queue.config.max_depth - 2
