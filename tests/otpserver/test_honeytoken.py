"""Honeytoken decoys: validate like soft tokens, alarm on any use."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.results import ValidateStatus
from repro.crypto.totp import totp_at
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.otpserver.server import OTPServer
from repro.otpserver.tokens import TokenType
from repro.policy import PolicyEngine, RiskEngine, risk
from repro.telemetry import Registry

ATTACKER_IP = "203.0.113.9"


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T12:00:00")


@pytest.fixture
def server(clock):
    return OTPServer(clock=clock, rng=random.Random(5))


def enroll(server):
    return server.enroll_honeytoken("decoy1")


class TestEnrollment:
    def test_serial_and_type(self, server):
        serial, secret = enroll(server)
        assert serial.startswith("LSHY")
        assert len(secret) >= 16
        record = server.user_tokens("decoy1")[0]
        assert record.token_type is TokenType.HONEY

    def test_counted_in_type_breakdown(self, server):
        enroll(server)
        assert server.token_count_by_type()["honey"] == 1

    def test_one_pairing_rule_applies(self, server):
        enroll(server)
        with pytest.raises(Exception):
            server.enroll_soft("decoy1")

    def test_admin_api_init(self, clock):
        rng = random.Random(5)
        server = OTPServer(clock=clock, rng=rng)
        api = AdminAPI(server, rng=rng)
        api.add_admin("portal", "secret")
        client = AdminAPIClient(api, "portal", "secret", rng=rng)
        body = client.call("POST", "/admin/init", {"user": "decoy1", "type": "honey"})
        assert body["serial"].startswith("LSHY")
        assert bytes.fromhex(body["otpkey"])


class TestIndistinguishability:
    """The attacker holding the stolen seed must learn nothing from the
    server's responses: decoy answers match a soft token's exactly."""

    def test_correct_code_is_accepted(self, server, clock):
        _, secret = enroll(server)
        result = server.validate("decoy1", totp_at(secret, clock.now()))
        assert result.status is ValidateStatus.OK

    def test_responses_match_soft_token(self, clock):
        rng = random.Random(5)
        honey_server = OTPServer(clock=clock, rng=rng)
        _, honey_secret = honey_server.enroll_honeytoken("u")
        soft_server = OTPServer(clock=clock, rng=random.Random(5))
        _, soft_secret = soft_server.enroll_soft("u")
        code = totp_at(honey_secret, clock.now())
        probes = [code, code, "000000"]  # accept, replay, wrong
        for probe_h, probe_s in zip(probes, [totp_at(soft_secret, clock.now()), totp_at(soft_secret, clock.now()), "000000"]):
            honey = honey_server.validate("u", probe_h)
            soft = soft_server.validate("u", probe_s)
            assert honey.status is soft.status
            assert honey.reason == soft.reason


class TestAlarms:
    def test_accepted_use_alarms(self, server, clock):
        _, secret = enroll(server)
        server.validate("decoy1", totp_at(secret, clock.now()), source=ATTACKER_IP)
        assert len(server.honeytoken_alarms) == 1
        alarm = server.honeytoken_alarms[0]
        assert alarm["accepted"] is True
        assert alarm["source"] == ATTACKER_IP

    def test_probe_with_wrong_code_alarms(self, server):
        enroll(server)
        server.validate("decoy1", "000000", source=ATTACKER_IP)
        assert len(server.honeytoken_alarms) == 1
        assert server.honeytoken_alarms[0]["accepted"] is False

    def test_null_request_is_not_a_use(self, server):
        enroll(server)
        server.validate("decoy1", None, source=ATTACKER_IP)
        assert server.honeytoken_alarms == []

    def test_alarm_lands_in_audit_log(self, server, clock):
        _, secret = enroll(server)
        server.validate("decoy1", totp_at(secret, clock.now()), source=ATTACKER_IP)
        events = server.audit.entries(action="honeytoken_alarm")
        assert len(events) == 1
        assert ATTACKER_IP in events[0].detail

    def test_alarm_counts_in_status(self, clock):
        """The alarm list is the one count: ``status()`` reads its length,
        and no series mirrors it."""
        telemetry = Registry()
        server = OTPServer(clock=clock, rng=random.Random(5), telemetry=telemetry)
        _, secret = server.enroll_honeytoken("decoy1")
        server.validate("decoy1", totp_at(secret, clock.now()))
        server.validate("decoy1", "000000")
        assert [alarm["accepted"] for alarm in server.honeytoken_alarms] == [True, False]
        assert server.status("audit")["honeytoken_alarms"] == 2
        assert not [name for name in telemetry.instruments() if "honeytoken" in name]

    def test_alarm_flags_through_risk_stage(self, clock):
        stage = RiskEngine(clock=clock)
        server = OTPServer(
            clock=clock,
            rng=random.Random(5),
            policy=PolicyEngine(clock=clock, risk=stage),
        )
        _, secret = server.enroll_honeytoken("decoy1")
        server.validate("decoy1", totp_at(secret, clock.now()), source=ATTACKER_IP)
        assert stage.flags_for("decoy1") == 1
        assert stage.snapshot()["honeytoken_alarms"] == 1

    def test_risk_denied_probe_still_alarms(self, clock, monkeypatch):
        """A probe refused upstream by the risk stage never reaches the
        dispatch handler — the policy stage must alarm instead, so no
        decoy use can go unrecorded."""
        monkeypatch.setattr(risk, "WATCHLISTED_NETWORK_WEIGHT", 1.0)
        stage = RiskEngine(clock=clock)
        stage.add_watchlist("203.0.113.0/24")
        server = OTPServer(
            clock=clock,
            rng=random.Random(5),
            policy=PolicyEngine(clock=clock, risk=stage),
        )
        _, secret = server.enroll_honeytoken("decoy1")
        result = server.validate(
            "decoy1", totp_at(secret, clock.now()), source=ATTACKER_IP
        )
        assert result.status is ValidateStatus.REJECT
        assert result.reason.startswith("risk score")
        assert len(server.honeytoken_alarms) == 1
        assert server.honeytoken_alarms[0]["accepted"] is False
