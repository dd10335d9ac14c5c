"""Dynamic risk assessment: signals, thresholds, PAM integration."""

import pytest

from repro.common.clock import VirtualClock
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession, PAMStack
from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.token import MFATokenModule
from repro.policy import (
    EnforcementLadder,
    PolicyEngine,
    RiskAction,
    RiskEngine,
)
from repro.policy import risk
from repro.policy.geo import GeoDatabase, GeoVelocityMonitor


def noon_clock():
    """A clock parked mid-day so the unusual-hour signal stays quiet."""
    return VirtualClock.at("2016-10-05T12:00:00")


@pytest.fixture
def clock():
    return noon_clock()


@pytest.fixture
def engine(clock):
    return RiskEngine(clock=clock)


class TestSignals:
    def test_clean_login_allows(self, engine):
        decision = engine.assess("alice", "198.51.100.7")
        assert decision.action is RiskAction.ALLOW
        assert decision.score == 0.0

    def test_failure_burst_signal(self, engine):
        for _ in range(3):
            engine.record_failure("alice")
        decision = engine.assess("alice", "198.51.100.7")
        assert "failure_burst" in decision.signals
        assert decision.action is RiskAction.STEP_UP

    def test_failures_age_out(self, engine, clock):
        for _ in range(3):
            engine.record_failure("alice")
        clock.advance(700)  # past the 600 s window
        assert "failure_burst" not in engine.assess("alice", "1.2.3.4").signals

    def test_success_resets_failures(self, engine):
        for _ in range(3):
            engine.record_failure("alice")
        engine.record_success("alice", "198.51.100.7")
        assert "failure_burst" not in engine.assess("alice", "198.51.100.7").signals

    def test_novel_origin_signal(self, engine):
        engine.record_success("alice", "198.51.100.7")
        decision = engine.assess("alice", "203.0.113.9")
        assert "novel_origin" in decision.signals

    def test_no_novel_signal_without_history(self, engine):
        # A first-ever login has no baseline to be novel against.
        assert "novel_origin" not in engine.assess("alice", "1.2.3.4").signals

    def test_known_origin_quiet(self, engine):
        engine.record_success("alice", "198.51.100.7")
        assert "novel_origin" not in engine.assess("alice", "198.51.100.7").signals

    def test_unusual_hour_signal(self):
        clock = VirtualClock.at("2016-10-05T03:00:00")
        engine = RiskEngine(clock=clock)
        assert "unusual_hour" in engine.assess("alice", "1.2.3.4").signals

    def test_watchlist_signal(self, engine):
        engine.add_watchlist("203.0.113.0/24")
        decision = engine.assess("alice", "203.0.113.66")
        assert "watchlisted_network" in decision.signals

    def test_impossible_travel_signal(self, clock):
        geo = GeoDatabase.with_sample_data()
        monitor = GeoVelocityMonitor(geo, clock)
        engine = RiskEngine(clock=clock, geo_monitor=monitor)
        engine.assess("alice", "129.114.0.1")  # Austin baseline
        clock.advance(600)
        decision = engine.assess("alice", "203.0.113.9")  # Beijing, 10 min later
        assert "impossible_travel" in decision.signals


class TestThresholds:
    def test_stacked_signals_deny(self, engine):
        engine.record_success("alice", "198.51.100.7")
        engine.add_watchlist("203.0.113.0/24")
        for _ in range(3):
            engine.record_failure("alice")
        decision = engine.assess("alice", "203.0.113.66")
        # burst 0.40 + novel 0.25 + watchlist 0.35 = 1.0 -> DENY
        assert decision.action is RiskAction.DENY
        assert decision.score == pytest.approx(1.0)

    def test_score_clamped(self, clock, monkeypatch):
        monkeypatch.setattr(risk, "FAILURE_BURST_WEIGHT", 0.9)
        monkeypatch.setattr(risk, "NOVEL_ORIGIN_WEIGHT", 0.9)
        engine = RiskEngine(clock=clock)
        engine.record_success("alice", "1.1.1.1")
        for _ in range(3):
            engine.record_failure("alice")
        assert engine.assess("alice", "2.2.2.2").score == 1.0

    def test_invalid_thresholds(self, clock):
        # The deny bar is a constant; the one settable threshold sits below it.
        assert RiskEngine(clock=clock).step_up_threshold <= risk.DENY_THRESHOLD <= 1.0
        with pytest.raises(ValueError):
            RiskEngine(clock=clock, step_up_threshold=0.8)
        with pytest.raises(ValueError):
            RiskEngine(clock=clock, step_up_threshold=-0.1)

    def test_custom_thresholds(self, clock, monkeypatch):
        monkeypatch.setattr(risk, "DENY_THRESHOLD", 0.2)
        strict = RiskEngine(clock=clock, step_up_threshold=0.05)
        strict.record_success("alice", "1.1.1.1")
        decision = strict.assess("alice", "2.2.2.2")  # novel: 0.25
        assert decision.action is RiskAction.DENY


class TestPamIntegration:
    """The policy-backed PAM modules consume the engine's verdict: DENY
    fails before any factor, STEP_UP withholds the ACL waiver, scores
    land in the session."""

    def session(self, clock, username="alice", ip="198.51.100.7"):
        return PAMSession(
            username=username, remote_ip=ip,
            conversation=ScriptedConversation(), clock=clock,
        )

    def token_module(self, engine, clock, mode="full"):
        """A token module over the engine; touching LDAP or RADIUS (which a
        refusal or a waiver must never do) fails the test."""
        policy = PolicyEngine(ladder=EnforcementLadder(mode), clock=clock, risk=engine)
        return MFATokenModule(ldap=None, radius=None, policy=policy)

    def test_allow_passes_through(self, engine, clock):
        module = self.token_module(engine, clock, mode="off")
        s = self.session(clock)
        assert module.authenticate(s) is PAMResult.SUCCESS
        assert s.items["risk_score"] == 0.0
        assert s.items["risk_signals"] == []

    def test_deny_blocks_with_message(self, engine, clock):
        engine.add_watchlist("203.0.113.0/24")
        engine.record_success("alice", "1.1.1.1")
        for _ in range(3):
            engine.record_failure("alice")
        module = self.token_module(engine, clock)
        s = self.session(clock, ip="203.0.113.66")
        assert module.authenticate(s) is PAMResult.AUTH_ERR
        assert s.conversation.messages() == ["access denied by policy"]
        # Refused before any factor: nothing was prompted for.
        assert [kind for kind, _ in s.conversation.transcript] == ["error"]
        assert s.items["risk_score"] == pytest.approx(1.0)
        assert "watchlisted_network" in s.items["risk_signals"]

    def test_step_up_suppresses_exemption(self, clock):
        """The composition: risky exempted logins must present a token.

        The engine is tuned so a single novel-origin signal (0.25) crosses
        the step-up line — the posture an operator would pick for service
        accounts whose origins are supposed to be static.
        """
        engine = RiskEngine(clock=clock, step_up_threshold=0.2)
        engine.record_success("gateway01", "203.0.113.50")
        acl = InMemoryExemptionACL("+ : gateway01 : ALL : ALL", clock=clock)
        policy = PolicyEngine(exemptions=acl, clock=clock, risk=engine)

        class AlwaysToken:
            name = "token_stub"
            calls = 0

            def authenticate(self, session):
                AlwaysToken.calls += 1
                return PAMResult.SUCCESS

        stack = PAMStack("sshd")
        stack.append("sufficient", MFAExemptionModule(policy))
        stack.append("requisite", AlwaysToken())

        # Known origin: exemption short-circuits, token never runs.
        s = self.session(clock, username="gateway01", ip="203.0.113.50")
        assert stack.authenticate(s) is PAMResult.SUCCESS
        assert AlwaysToken.calls == 0

        # Novel origin: step-up forces the token module to run.
        s = self.session(clock, username="gateway01", ip="8.8.8.8")
        assert stack.authenticate(s) is PAMResult.SUCCESS
        assert AlwaysToken.calls == 1
        assert s.items["risk_step_up"] is True

    def test_risk_aware_exemption_without_step_up(self, engine, clock):
        acl = InMemoryExemptionACL("+ : alice : ALL : ALL", clock=clock)
        module = MFAExemptionModule(
            PolicyEngine(exemptions=acl, clock=clock, risk=engine)
        )
        s = self.session(clock)
        assert module.authenticate(s) is PAMResult.SUCCESS
        assert s.items["mfa_exempt"] is True
        assert "risk_step_up" not in s.items


class TestClockBinding:
    """The engine keeps the clock it is built on: there is no wall-clock
    fallback to drift from a virtual run."""

    def test_clock_is_required(self):
        with pytest.raises(TypeError):
            RiskEngine()

    def test_unusual_hour_follows_bound_clock(self):
        engine = RiskEngine(VirtualClock.at("2016-10-05T03:00:00"))
        assert "unusual_hour" in engine.assess("alice", "10.0.0.1").signals
