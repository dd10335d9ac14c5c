"""Adversarial invariants under infrastructure faults.

The honeytoken-alarm and risk-flag guarantees are cheap to keep when the
network is healthy; the point of wiring an attacker into the chaos
harness is to show they also hold *mid-fault* — during a resync storm
(replay defenses under maximum pressure) and a network partition (the
decoy's shard may be unreachable).  Two invariants, judged per attacker
attempt:

e. no honeytoken use goes unalarmed;
f. no attacker success goes unflagged in the risk stage.

Seeds come from ``CHAOS_SEEDS`` (the ``seed`` fixture), matching the
other whole-workload suites.
"""

from functools import lru_cache

import pytest

from repro.chaos import WorkloadConfig, run_chaos, shipped_plans
from repro.chaos.runner import ATTACKER_ATTEMPTS

PLANS = ("resync-storm", "partition")


@lru_cache(maxsize=None)
def adversarial_report(plan_name: str, seed: int):
    plan = shipped_plans()[plan_name]
    return run_chaos(plan, WorkloadConfig(seed=seed, adversarial=True))


@pytest.fixture(params=PLANS)
def plan_name(request):
    return request.param


class TestAdversarialInvariants:
    def test_zero_adversarial_violations(self, plan_name, seed):
        report = adversarial_report(plan_name, seed)
        assert report.adversarial_violations() == []

    def test_attacker_actually_ran(self, plan_name, seed):
        report = adversarial_report(plan_name, seed)
        events = report.attacker_events()
        assert len(events) == ATTACKER_ATTEMPTS
        assert any(e["decoy"] for e in events)

    def test_every_decoy_hit_alarmed(self, plan_name, seed):
        report = adversarial_report(plan_name, seed)
        decoy_hits = [e for e in report.attacker_events() if e["decoy"]]
        assert decoy_hits
        for event in decoy_hits:
            assert event["alarmed"], event

    def test_adversarial_violations_roll_into_invariants(self, plan_name, seed):
        """The summary gate CI reads includes the adversarial verdicts."""
        report = adversarial_report(plan_name, seed)
        summary = report.summary()
        assert summary["adversarial_violations"] == 0
        assert summary["attacker_attempts"] == ATTACKER_ATTEMPTS
        for violation in report.adversarial_violations():
            assert violation in report.invariant_violations()


class TestHonestTrafficUnharmed:
    def test_false_accept_and_storage_invariants_still_hold(self, plan_name, seed):
        report = adversarial_report(plan_name, seed)
        assert report.false_accepts() == []
        assert report.storage_violations() == []

    def test_availability_not_degraded_by_attacker(self, plan_name, seed):
        from tests.chaos.conftest import report_for

        adversarial = adversarial_report(plan_name, seed)
        plain = report_for(plan_name, seed)
        assert adversarial.availability() >= plain.availability() - 1e-9


class TestDeterminism:
    def test_adversarial_digest_reproducible(self, seed):
        plan = shipped_plans()["resync-storm"]
        a = run_chaos(plan, WorkloadConfig(seed=seed, adversarial=True))
        b = run_chaos(plan, WorkloadConfig(seed=seed, adversarial=True))
        assert a.digest() == b.digest()
        assert a.summary() == b.summary()

    def test_plain_run_digest_unchanged_by_adversarial_code(self, seed):
        """Adding the attacker must not perturb non-adversarial runs: a
        plain rerun of the plan reproduces the plain run's digest."""
        from tests.chaos.conftest import report_for

        plain = report_for("resync-storm", seed)
        rerun = run_chaos(
            shipped_plans()["resync-storm"], WorkloadConfig(seed=seed)
        )
        assert rerun.digest() == plain.digest()
        assert not rerun.attacker_events()
