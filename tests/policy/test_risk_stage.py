"""The risk stage of the policy engine: one verdict for every layer.

Covers the wiring of :class:`~repro.policy.RiskEngine` into
``PolicyEngine``: STEP_UP withholding the exemption grant (at the engine
and in the PAM stack), DENY short-circuiting before lockout counters
move, the risk block in ``GET /admin/status``, and the engine's flag log.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.results import ValidateStatus
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.otpserver.server import OTPServer
from repro.pam.framework import PAMResult, PAMSession
from repro.pam.modules.exemption import MFAExemptionModule
from repro.policy import (
    AuthRequest,
    EnforcementLadder,
    PolicyAction,
    PolicyEngine,
    RiskAction,
    RiskEngine,
)
from repro.policy import risk

ATTACKER_IP = "203.0.113.9"
HOME_IP = "198.51.100.7"


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T12:00:00")


@pytest.fixture
def watchlist_denies(monkeypatch):
    """Raise the watchlist weight past the deny bar for one test."""
    monkeypatch.setattr(risk, "WATCHLISTED_NETWORK_WEIGHT", 1.0)


def watchlisted_stage(clock):
    """A stage whose verdict for the attacker subnet is fixed: STEP_UP, or
    DENY under ``watchlist_denies``."""
    stage = RiskEngine(clock=clock)
    stage.add_watchlist("203.0.113.0/24")
    return stage


class GrantAll:
    last_error = None

    def check(self, username, ip):
        return True

    def rules(self):
        return []


class TestAdoption:
    def test_ready_engine_is_used_as_is(self, clock):
        engine = RiskEngine(clock=clock)
        assert PolicyEngine(clock=clock, risk=engine).risk is engine

    def test_true_builds_an_engine_on_the_policy_clock(self, clock):
        policy = PolicyEngine(clock=clock, risk=True)
        for _ in range(3):
            policy.risk.record_failure("alice")
        assert "failure_burst" in policy.risk.assess("alice", HOME_IP).signals
        clock.advance(601)
        assert "failure_burst" not in policy.risk.assess("alice", HOME_IP).signals

    def test_set_risk_attaches_and_removes_live(self, clock):
        policy = PolicyEngine(clock=clock)
        assert policy.risk is None
        stage = RiskEngine(clock)
        policy.set_risk(stage)
        assert policy.risk is stage
        assert policy.snapshot()["risk"]["configured"] is True
        policy.set_risk(None)
        assert policy.risk is None
        assert policy.snapshot()["risk"] == {"configured": False}


class TestStepUp:
    def test_step_up_withholds_exemption(self, clock):
        """An exemption-ACL'd account still faces the second factor when
        the risk stage says step up."""
        policy = PolicyEngine(
            exemptions=GrantAll(), clock=clock, risk=watchlisted_stage(clock)
        )
        home = policy.evaluate(AuthRequest("alice", HOME_IP, pairing="soft"))
        assert home.action is PolicyAction.EXEMPT
        risky = policy.evaluate(AuthRequest("alice", ATTACKER_IP, pairing="soft"))
        assert risky.action is PolicyAction.CHALLENGE
        assert risky.risk_action == RiskAction.STEP_UP.value
        assert "watchlisted_network" in risky.risk_signals

    def test_step_up_upgrades_off_mode_for_paired_user(self, clock):
        policy = PolicyEngine(
            ladder=EnforcementLadder("off"),
            clock=clock,
            risk=watchlisted_stage(clock),
        )
        quiet = policy.evaluate(AuthRequest("alice", HOME_IP, pairing="soft"))
        assert quiet.action is PolicyAction.ALLOW
        risky = policy.evaluate(AuthRequest("alice", ATTACKER_IP, pairing="soft"))
        assert risky.action is PolicyAction.CHALLENGE

    def test_unpaired_user_cannot_be_stepped_up(self, clock):
        """Nothing to step up to: the ladder outcome stands, flagged."""
        stage = watchlisted_stage(clock)
        policy = PolicyEngine(
            ladder=EnforcementLadder("paired"), clock=clock, risk=stage
        )
        decision = policy.evaluate(AuthRequest("mallory", ATTACKER_IP, pairing=None))
        assert decision.action is PolicyAction.ALLOW
        assert decision.risk_action == RiskAction.STEP_UP.value
        assert stage.flags_for("mallory") == 1

    def test_pam_exemption_module_refuses_grant_on_step_up(self, clock):
        policy = PolicyEngine(
            exemptions=GrantAll(), clock=clock, risk=watchlisted_stage(clock)
        )
        module = MFAExemptionModule(policy)
        safe = PAMSession(username="alice", service="sshd", remote_ip=HOME_IP)
        assert module.authenticate(safe) is PAMResult.SUCCESS
        assert safe.items.get("mfa_exempt") is True
        risky = PAMSession(username="alice", service="sshd", remote_ip=ATTACKER_IP)
        assert module.authenticate(risky) is PAMResult.AUTH_ERR
        assert risky.items.get("risk_step_up") is True
        assert "mfa_exempt" not in risky.items


class TestDeny:
    def test_deny_decision_carries_reason_and_score(self, clock, watchlist_denies):
        policy = PolicyEngine(clock=clock, risk=watchlisted_stage(clock))
        decision = policy.evaluate(AuthRequest("alice", ATTACKER_IP, pairing="soft"))
        assert decision.action is PolicyAction.DENY
        assert decision.risk_score == 1.0
        assert decision.reason.startswith("risk score")

    def test_deny_short_circuits_before_lockout_counters(self, clock, watchlist_denies):
        """A risk-denied attempt must not move the failure counter: the
        20-strike ledger records credential failures, not refusals."""
        stage = watchlisted_stage(clock)
        server = OTPServer(
            clock=clock,
            rng=random.Random(7),
            policy=PolicyEngine(clock=clock, risk=stage),
        )
        server.enroll_soft("alice")

        denied = server.validate("alice", "000000", source=ATTACKER_IP)
        assert denied.status is ValidateStatus.REJECT
        assert denied.reason.startswith("risk score")
        assert server.user_tokens("alice")[0].failcount == 0

        rejected = server.validate("alice", "000000", source=HOME_IP)
        assert rejected.status is ValidateStatus.REJECT
        assert server.user_tokens("alice")[0].failcount == 1


class TestSnapshot:
    def test_snapshot_without_risk(self, clock):
        snap = PolicyEngine(clock=clock).snapshot()
        assert snap["risk"] == {"configured": False}

    def test_snapshot_with_risk_counters(self, clock):
        stage = watchlisted_stage(clock)
        policy = PolicyEngine(clock=clock, risk=stage)
        policy.evaluate(AuthRequest("alice", ATTACKER_IP, pairing="soft"))
        snap = policy.snapshot()["risk"]
        assert snap["configured"] is True
        assert snap["assessed"] == 1
        assert snap["step_ups"] == 1
        assert snap["denies"] == 0
        assert snap["flagged_users"] == 1
        assert snap["step_up_threshold"] == 0.3
        assert snap["deny_threshold"] == 0.7

    def test_admin_policy_route_reports_risk(self, clock):
        rng = random.Random(11)
        server = OTPServer(
            clock=clock,
            rng=rng,
            policy=PolicyEngine(clock=clock, risk=watchlisted_stage(clock)),
        )
        api = AdminAPI(server, rng=rng)
        api.add_admin("portal", "secret")
        client = AdminAPIClient(api, "portal", "secret", rng=rng)
        server.enroll_soft("alice")
        server.validate("alice", "123456", source=ATTACKER_IP)
        body = client.call("GET", "/admin/status", {"section": "policy"})
        assert body["risk"]["configured"] is True
        assert body["risk"]["assessed"] >= 1
        assert body["risk"]["flagged_users"] >= 0


class TestFlagLog:
    def test_flag_log_eviction_keeps_counts(self, clock, monkeypatch):
        monkeypatch.setattr(risk, "FLAG_LOG_LIMIT", 4)
        stage = RiskEngine(clock=clock)
        stage.add_watchlist("203.0.113.0/24")
        for i in range(10):
            stage.evaluate(f"user{i}", ATTACKER_IP)
        assert len(stage.flagged()) == 4
        # Eviction trims the detailed log, never the per-user counts.
        assert stage.flags_for("user0") == 1
        assert sum(stage.snapshot()["flagged_users"] for _ in (1,)) == 10

    def test_honeytoken_alarm_flags_at_full_score(self, clock):
        stage = RiskEngine(clock=clock)
        stage.raise_alarm("decoy1", ATTACKER_IP, serial="LSHY0001", accepted=True)
        entry = stage.flagged()[-1]
        assert entry["action"] == "honeytoken"
        assert entry["score"] == 1.0
        assert stage.snapshot()["honeytoken_alarms"] == 1
