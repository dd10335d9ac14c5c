"""PolicyEngine: the ladder, exemptions, lockout, snapshots."""

from datetime import datetime, timezone

import pytest

from repro.common.clock import VirtualClock
from repro.policy import (
    AuthRequest,
    EnforcementLadder,
    EnforcementMode,
    LockoutPolicy,
    PolicyAction,
    PolicyEngine,
)
from repro.telemetry import Registry


def _at(iso: str) -> datetime:
    return datetime.fromisoformat(iso).replace(tzinfo=timezone.utc)


class FakeACL:
    """Duck-typed stand-in for ExemptionACL: check(), rules(), last_error."""

    last_error = None

    def __init__(self, granted=()):
        self.granted = set(granted)

    def check(self, username, ip):
        return username in self.granted

    def rules(self):
        return []


class TestEnforcementLadder:
    def test_all_four_modes_parse(self):
        for mode in ("off", "paired", "full"):
            ladder = EnforcementLadder(mode)
            assert ladder.configured_mode is EnforcementMode(mode)
            assert not ladder.config_error
        ladder = EnforcementLadder("countdown", "2016-11-01")
        assert ladder.configured_mode is EnforcementMode.COUNTDOWN
        assert not ladder.config_error

    def test_unknown_mode_fails_closed(self):
        ladder = EnforcementLadder("audit-only")
        assert ladder.configured_mode is EnforcementMode.FULL
        assert ladder.config_error

    def test_bad_deadline_fails_closed(self):
        ladder = EnforcementLadder("countdown", "next tuesday")
        assert ladder.configured_mode is EnforcementMode.FULL
        assert ladder.config_error

    def test_countdown_without_deadline_fails_closed(self):
        ladder = EnforcementLadder("countdown")
        assert ladder.configured_mode is EnforcementMode.FULL
        assert ladder.config_error

    def test_countdown_expires_into_full(self):
        ladder = EnforcementLadder("countdown", "2016-11-01")
        assert ladder.effective_mode(_at("2016-10-05")) is EnforcementMode.COUNTDOWN
        assert ladder.effective_mode(_at("2016-11-01")) is EnforcementMode.FULL
        assert ladder.effective_mode(_at("2017-01-01")) is EnforcementMode.FULL

    def test_days_left_rounds_up_and_floors_at_zero(self):
        ladder = EnforcementLadder("countdown", "2016-11-01")
        assert ladder.days_left(_at("2016-10-31T23:00:00")) == 1
        assert ladder.days_left(_at("2016-10-22")) == 10
        assert ladder.days_left(_at("2016-12-25")) == 0


class TestLockoutPolicy:
    def test_boundary_is_inclusive(self):
        policy = LockoutPolicy(threshold=20)
        assert not policy.is_lockout(19)
        assert policy.is_lockout(20)
        assert policy.is_lockout(21)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            LockoutPolicy(threshold=0)


class TestEvaluate:
    def _engine(self, **kwargs):
        kwargs.setdefault("clock", VirtualClock.at("2016-10-05T09:00:00"))
        return PolicyEngine(**kwargs)

    def test_off_mode_allows_without_pairing_lookup(self):
        def explode(username):
            raise AssertionError("off mode must not query the directory")

        engine = self._engine(ladder=EnforcementLadder("off"))
        decision = engine.evaluate(
            AuthRequest("alice", "1.2.3.4", pairing_lookup=explode)
        )
        assert decision.action is PolicyAction.ALLOW
        assert decision.mode is EnforcementMode.OFF
        assert decision.allows_entry

    def test_paired_mode_allows_unpaired(self):
        engine = self._engine(ladder=EnforcementLadder("paired"))
        decision = engine.evaluate(
            AuthRequest("alice", pairing_lookup=lambda u: None)
        )
        assert decision.action is PolicyAction.ALLOW
        assert decision.pairing_resolved

    def test_paired_mode_challenges_paired(self):
        engine = self._engine(ladder=EnforcementLadder("paired"))
        decision = engine.evaluate(AuthRequest("alice", pairing="soft"))
        assert decision.action is PolicyAction.CHALLENGE
        assert decision.pairing == "soft"
        assert not decision.allows_entry

    def test_countdown_notifies_unpaired_with_days(self):
        engine = self._engine(
            ladder=EnforcementLadder("countdown", "2016-10-15")
        )
        decision = engine.evaluate(AuthRequest("alice", pairing_lookup=lambda u: None))
        assert decision.action is PolicyAction.NOTIFY
        assert decision.countdown_days == 10

    def test_full_mode_challenges_everyone(self):
        engine = self._engine()
        unpaired = engine.evaluate(AuthRequest("alice", pairing_lookup=lambda u: None))
        assert unpaired.action is PolicyAction.CHALLENGE
        assert unpaired.pairing is None
        paired = engine.evaluate(AuthRequest("bob", pairing="sms"))
        assert paired.action is PolicyAction.CHALLENGE
        assert paired.pairing == "sms"

    def test_exemption_wins_over_ladder(self):
        engine = self._engine(exemptions=FakeACL(granted={"staff"}))
        decision = engine.evaluate(AuthRequest("staff", "10.0.0.1", pairing="soft"))
        assert decision.action is PolicyAction.EXEMPT
        assert engine.evaluate(AuthRequest("other", pairing="soft")).action is (
            PolicyAction.CHALLENGE
        )

    def test_decision_counter_increments(self):
        telemetry = Registry()
        engine = self._engine(telemetry=telemetry)
        engine.evaluate(AuthRequest("alice", pairing="soft"))
        engine.evaluate(AuthRequest("bob", pairing_lookup=lambda u: None))
        counter = telemetry.counter("policy_decisions_total", "")
        assert counter.value(action="challenge") == 2


class TestLiveReconfiguration:
    def test_set_ladder_switches_phase(self):
        engine = PolicyEngine(clock=VirtualClock.at("2016-10-05T09:00:00"))
        request = AuthRequest("alice", pairing_lookup=lambda u: None)
        assert engine.evaluate(request).action is PolicyAction.CHALLENGE
        engine.set_ladder("paired")
        assert engine.evaluate(request).action is PolicyAction.ALLOW


class TestSnapshot:
    def test_shape_without_optional_families(self):
        engine = PolicyEngine(clock=VirtualClock.at("2016-10-05T09:00:00"))
        snap = engine.snapshot()
        assert snap["ladder"]["effective_mode"] == "full"
        assert snap["lockout"] == {"threshold": 20}
        assert snap["exemptions"] == {"configured": False}
        assert snap["risk"] == {"configured": False}
        assert "rate_limit" not in snap

    def test_countdown_effective_mode_reflects_now(self):
        clock = VirtualClock.at("2016-12-01T00:00:00")
        engine = PolicyEngine(
            ladder=EnforcementLadder("countdown", "2016-11-01"), clock=clock
        )
        snap = engine.snapshot()
        assert snap["ladder"]["configured_mode"] == "countdown"
        assert snap["ladder"]["effective_mode"] == "full"

    def test_file_backed_acl_snapshot(self, tmp_path):
        acl_file = tmp_path / "exemptions.acl"
        acl_file.write_text(
            "+:alice:10.0.0.0/8:ALL\n-:ALL:192.0.2.0/24:ALL\n"
        )
        from repro.pam.acl import ExemptionACL

        clock = VirtualClock.at("2016-10-05T09:00:00")
        engine = PolicyEngine(
            exemptions=ExemptionACL(str(acl_file), clock=clock), clock=clock
        )
        snap = engine.snapshot()["exemptions"]
        assert snap == {
            "configured": True,
            "rules": 2,
            "grants": 1,
            "denials": 1,
            "last_error": None,
        }
