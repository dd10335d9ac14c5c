"""PolicyEngine: the ladder, exemptions, admission control, snapshots."""

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
    RateLimitConfig,
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

    def test_throttle_precedes_exemption(self):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        engine = self._engine(
            clock=clock,
            exemptions=FakeACL(granted={"staff"}),
            rate_limit=RateLimitConfig(rate=1.0, burst=2.0),
        )
        request = AuthRequest("staff", "198.51.100.9", pairing="soft")
        assert engine.evaluate(request).action is PolicyAction.EXEMPT
        assert engine.evaluate(request).action is PolicyAction.EXEMPT
        throttled = engine.evaluate(request)
        assert throttled.action is PolicyAction.THROTTLE
        assert "rate limit" in throttled.reason

    def test_empty_source_never_throttled(self):
        engine = self._engine(rate_limit=RateLimitConfig(rate=1.0, burst=1.0))
        for _ in range(5):
            decision = engine.evaluate(AuthRequest("alice", "", pairing="soft"))
            assert decision.action is PolicyAction.CHALLENGE

    def test_decision_counter_increments(self):
        telemetry = Registry()
        engine = self._engine(telemetry=telemetry)
        engine.evaluate(AuthRequest("alice", pairing="soft"))
        engine.evaluate(AuthRequest("bob", pairing_lookup=lambda u: None))
        counter = telemetry.counter("policy_decisions_total", "")
        assert counter.value(action="challenge") == 2


class TestVirtualClockAdmission:
    """Regression: the engine must never let its limiter refill on a
    different clock than the one driving evaluation."""

    def test_ready_limiter_rebound_onto_engine_clock(self):
        from repro.policy import TokenBucketLimiter

        clock = VirtualClock.at("2016-10-05T09:00:00")
        # A limiter built without a clock silently sat on wall time; the
        # engine must adopt it onto its own (virtual) clock at wiring.
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=2.0))
        engine = PolicyEngine(rate_limit=limiter, clock=clock)
        assert limiter.clock_injected
        request = AuthRequest("alice", "198.51.100.9", pairing="soft")
        assert engine.evaluate(request).action is PolicyAction.CHALLENGE
        assert engine.evaluate(request).action is PolicyAction.CHALLENGE
        assert engine.evaluate(request).action is PolicyAction.THROTTLE
        clock.advance(1.0)  # virtual second -> one token; wall time is free
        assert engine.evaluate(request).action is PolicyAction.CHALLENGE
        assert engine.evaluate(request).action is PolicyAction.THROTTLE

    def test_explicitly_clocked_limiter_left_alone(self):
        from repro.common.clock import WallClock
        from repro.policy import TokenBucketLimiter

        wall = WallClock()
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=2.0), clock=wall)
        PolicyEngine(
            rate_limit=limiter, clock=VirtualClock.at("2016-10-05T09:00:00")
        )
        assert limiter._clock is wall  # the caller's choice is respected

    def test_evaluate_now_threads_into_admission(self):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        engine = PolicyEngine(
            rate_limit=RateLimitConfig(rate=1.0, burst=1.0), clock=clock
        )
        request = AuthRequest("alice", "198.51.100.9", pairing="soft")
        start = clock.now()
        assert engine.evaluate(request, now=start).action is PolicyAction.CHALLENGE
        assert engine.evaluate(request, now=start).action is PolicyAction.THROTTLE
        # The caller's timestamp alone drives the refill — the engine's
        # clock has not moved, yet admission follows the handed-in time.
        later = engine.evaluate(request, now=start + 1.0)
        assert later.action is PolicyAction.CHALLENGE

    def test_admit_accepts_explicit_now(self):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        engine = PolicyEngine(
            rate_limit=RateLimitConfig(rate=1.0, burst=1.0), clock=clock
        )
        start = clock.now()
        assert engine.admit("198.51.100.9", now=start)
        assert not engine.admit("198.51.100.9", now=start)
        assert engine.admit("198.51.100.9", now=start + 1.0)


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
        assert snap["rate_limit"] == {"configured": False}

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

    def test_rate_limit_snapshot(self):
        engine = PolicyEngine(
            clock=VirtualClock.at("2016-10-05T09:00:00"),
            rate_limit=RateLimitConfig(rate=5.0, burst=10.0),
        )
        engine.evaluate(AuthRequest("alice", "1.2.3.4", pairing="soft"))
        snap = engine.snapshot()["rate_limit"]
        assert snap["configured"]
        assert snap["rate"] == 5.0
        assert snap["burst"] == 10.0
        assert snap["sources_tracked"] == 1
