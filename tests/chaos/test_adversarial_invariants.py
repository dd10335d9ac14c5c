"""Adversarial invariants under infrastructure faults.

The honeytoken-alarm and risk-flag guarantees are cheap to keep when the
network is healthy; the point of running the attacker inside every fault
plan is to show they also hold *mid-fault* — during a resync storm (replay
defenses under maximum pressure) and a network partition (the decoy's
shard may be unreachable).  The attacker's attempts are spread over the
whole login train, so every faulted shipped plan sees at least one of
them inside a fault window.

Seeds come from ``CHAOS_SEEDS`` (the ``seed`` fixture), matching the
other whole-workload suites.
"""

import pytest

from repro.chaos import run, runner, shipped_plans

from .conftest import report_for

PLANS = ("resync-storm", "partition")


def attack_free(monkeypatch, plan_name: str, seed: int):
    """The same run with the attacker making no attempt."""
    monkeypatch.setattr(runner, "ATTACKER_ATTEMPTS", 0)
    return run(plan_name, seed)


def honest_outcomes(report):
    return [
        (row["user"], row["expect"], row["healthy"], row["ok"], row["silent"])
        for row in report.rows("attempt")
    ]


@pytest.fixture(params=PLANS)
def plan_name(request):
    return request.param


class TestAdversarialInvariants:
    def test_zero_adversarial_violations(self, plan_name, seed):
        assert report_for(plan_name, seed).violations() == []

    def test_attacker_actually_ran(self, plan_name, seed):
        attacks = report_for(plan_name, seed).rows("attack")
        assert len(attacks) == runner.ATTACKER_ATTEMPTS
        assert {a["channel"] for a in attacks} == {"stolen_seed", "guessed_code"}

    def test_every_decoy_hit_alarmed(self, plan_name, seed):
        attacks = report_for(plan_name, seed).rows("attack")
        decoy_hits = [a for a in attacks if a["group"] == "honeytoken"]
        assert decoy_hits
        for attack in decoy_hits:
            assert attack["alarmed"], attack

    def test_adversarial_violations_roll_into_invariants(self, plan_name, seed):
        """The summary gate CI reads carries the attack half of the run."""
        summary = report_for(plan_name, seed).summary()
        assert summary["attack"]["attempts"] == runner.ATTACKER_ATTEMPTS
        assert summary["attack"]["honeytoken"] == {"uses": 6, "alarms": 6}
        assert summary["violations"] == []


class TestHonestTrafficUnharmed:
    def test_false_accept_and_storage_invariants_still_hold(self, plan_name, seed):
        report = report_for(plan_name, seed)
        assert [r for r in report.rows("attempt") if r["ok"] and not r["expect"]] == []
        crashes = report.rows("shard_crash") + report.rows("shard_rejoin")
        assert all(event["digest_match"] for event in crashes)

    def test_availability_not_degraded_by_attacker(self, monkeypatch, plan_name, seed):
        attacked = report_for(plan_name, seed).summary()["honest"]
        plain = attack_free(monkeypatch, plan_name, seed).summary()["honest"]
        assert attacked["availability"] >= plain["availability"] - 1e-9


class TestDeterminism:
    def test_adversarial_digest_reproducible(self, seed):
        a, b = run("resync-storm", seed), run("resync-storm", seed)
        assert a.log.digest() == b.log.digest()
        assert a.summary() == b.summary()

    def test_plain_run_digest_unchanged_by_adversarial_code(self, monkeypatch, seed):
        """The attacker adds traffic, never a different outcome for the
        honest train: a run without its attempts logs the same honest
        outcomes, and replays byte-identically."""
        attacked = report_for("resync-storm", seed)
        plain = attack_free(monkeypatch, "resync-storm", seed)
        assert not plain.rows("attack")
        assert honest_outcomes(plain) == honest_outcomes(attacked)
        assert attack_free(monkeypatch, "resync-storm", seed).log.digest() == plain.log.digest()


@pytest.mark.parametrize(
    "faulted", sorted(name for name, plan in shipped_plans().items() if plan.faults)
)
def test_every_faulted_plan_is_attacked_inside_a_fault_window(faulted, seed):
    plan = shipped_plans()[faulted]
    inside = [
        attack
        for attack in report_for(faulted, seed).rows("attack")
        if any(fault.active_at(attack["t"]) for fault in plan.faults)
    ]
    assert inside, f"no attacker attempt landed inside a {faulted} fault window"
