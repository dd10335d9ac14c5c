"""OTP server: enrollment, validation paths, lockout, SMS lifecycle, admin."""

import random

import pytest

from repro.authflow import stages
from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError, ValidationError
from repro.crypto.totp import TOTPGenerator
from repro.otpserver import OTPServer, OTPServerConfig, ValidateStatus
from repro.otpserver import server as server_module
from repro.otpserver.tokens import HardTokenBatch, TokenType


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def server(clock):
    return OTPServer(clock=clock, rng=random.Random(42))


def soft_device(server, clock, user="alice"):
    _, secret = server.enroll_soft(user)
    return TOTPGenerator(secret=secret, clock=clock)


class TestEnrollment:
    def test_soft_returns_secret_once(self, server):
        serial, secret = server.enroll_soft("alice")
        assert serial.startswith("LSSO")
        assert len(secret) == 20
        tokens = server.user_tokens("alice")
        assert tokens[0].token_type is TokenType.SOFT
        # The stored form is sealed, not the raw secret.
        assert tokens[0].sealed_secret != secret

    def test_one_pairing_per_user(self, server):
        server.enroll_soft("alice")
        with pytest.raises(ValidationError, match="already has a token"):
            server.enroll_sms("alice", "5125551234")

    def test_sms_requires_phone(self, server):
        with pytest.raises(ValidationError):
            server.enroll_sms("bob", "")

    def test_static_code_validation(self, server):
        with pytest.raises(ValidationError):
            server.enroll_static("train", "12345")  # five digits
        with pytest.raises(ValidationError):
            server.enroll_static("train", "abcdef")

    def test_static_regeneration_replaces(self, server):
        server.enroll_static("train", "111111")
        server.enroll_static("train", "222222")  # new session, new code
        assert len(server.user_tokens("train")) == 1
        assert server.validate("train", "222222").ok
        assert not server.validate("train", "111111").ok

    def test_hard_batch_import_and_assign(self, server):
        batch = HardTokenBatch(5, rng=random.Random(1))
        assert server.import_hard_batch(batch) == 5
        serial = batch.serials()[2]
        server.assign_hard("dave", serial)
        assert serial not in server.hard_inventory_serials()
        assert server.pairing_type("dave") is TokenType.HARD

    def test_assign_unknown_serial(self, server):
        with pytest.raises(NotFoundError):
            server.assign_hard("dave", "FT-nope")

    def test_duplicate_batch_import_rejected(self, server):
        batch = HardTokenBatch(3, rng=random.Random(2))
        server.import_hard_batch(batch)
        with pytest.raises(ValidationError):
            server.import_hard_batch(batch)

    def test_has_pairing(self, server):
        assert not server.has_pairing("alice")
        server.enroll_soft("alice")
        assert server.has_pairing("alice")


class TestValidation:
    def test_correct_code_accepted(self, server, clock):
        device = soft_device(server, clock)
        result = server.validate("alice", device.current_code())
        assert result.ok and result.status is ValidateStatus.OK

    def test_wrong_code_rejected(self, server, clock):
        soft_device(server, clock)
        assert server.validate("alice", "000000").status is ValidateStatus.REJECT

    def test_code_nullified_after_use(self, server, clock):
        device = soft_device(server, clock)
        code = device.current_code()
        assert server.validate("alice", code).ok
        assert not server.validate("alice", code).ok

    def test_no_token_status(self, server):
        assert server.validate("ghost", "123456").status is ValidateStatus.NO_TOKEN

    def test_null_code_against_soft_rejected(self, server, clock):
        soft_device(server, clock)
        assert server.validate("alice", None).status is ValidateStatus.REJECT

    def test_drift_tolerated(self, server, clock):
        device = soft_device(server, clock)
        device.skew = 290  # within the 300 s window
        assert server.validate("alice", device.current_code()).ok

    def test_excess_drift_rejected(self, server, clock):
        device = soft_device(server, clock)
        device.skew = 400
        assert not server.validate("alice", device.current_code()).ok

    def test_success_resets_failcount(self, server, clock):
        device = soft_device(server, clock)
        for _ in range(5):
            server.validate("alice", "000000")
        assert server.user_tokens("alice")[0].failcount == 5
        server.validate("alice", device.current_code())
        assert server.user_tokens("alice")[0].failcount == 0

    def test_pairing_confirmed_flag(self, server, clock):
        device = soft_device(server, clock)
        assert not server.user_tokens("alice")[0].pairing_confirmed
        server.validate("alice", device.current_code())
        assert server.user_tokens("alice")[0].pairing_confirmed

    def test_request_counter(self, server, clock):
        device = soft_device(server, clock)
        before = server.validate_requests
        server.validate("alice", device.current_code())
        assert server.validate_requests == before + 1


class TestLockout:
    def test_twenty_failures_deactivates(self, server, clock):
        """The paper's threshold: 20 consecutive failed attempts."""
        soft_device(server, clock)
        for i in range(19):
            assert server.validate("alice", "000000").status is ValidateStatus.REJECT
        assert not server.is_locked("alice")
        server.validate("alice", "000000")  # the 20th
        assert server.is_locked("alice")

    def test_locked_status_returned(self, server, clock):
        soft_device(server, clock)
        for _ in range(20):
            server.validate("alice", "000000")
        assert server.validate("alice", "123456").status is ValidateStatus.LOCKED

    def test_lockout_audited(self, server, clock):
        soft_device(server, clock)
        for _ in range(20):
            server.validate("alice", "000000")
        events = server.audit.lockout_events()
        assert len(events) == 1 and events[0].user_id == "alice"

    def test_clear_failcount_reactivates(self, server, clock):
        device = soft_device(server, clock)
        for _ in range(20):
            server.validate("alice", "000000")
        assert server.clear_failcount("alice") == 1
        assert not server.is_locked("alice")
        assert server.validate("alice", device.current_code()).ok

    def test_success_before_threshold_prevents_lockout(self, server, clock):
        device = soft_device(server, clock)
        for round_ in range(3):
            for _ in range(19):
                server.validate("alice", "000000")
            clock.advance(31)
            assert server.validate("alice", device.current_code()).ok
        assert not server.is_locked("alice")

    def test_custom_threshold(self, clock):
        server = OTPServer(
            clock=clock,
            config=OTPServerConfig(lockout_threshold=3),
            rng=random.Random(1),
        )
        server.enroll_soft("bob")
        for _ in range(3):
            server.validate("bob", "000000")
        assert server.is_locked("bob")


class TestSMSLifecycle:
    @pytest.fixture
    def sms_server(self, server):
        server.enroll_sms("carol", "5125551234")
        return server

    def test_null_request_triggers_send(self, sms_server, clock):
        result = sms_server.validate("carol", None)
        assert result.status is ValidateStatus.CHALLENGE_SENT
        clock.advance(10)
        assert sms_server.sms.latest("5125551234") is not None

    def test_repeat_request_does_not_resend(self, sms_server, clock):
        """While a code is active, LinOTP "will not forward to Twilio"."""
        sms_server.validate("carol", None)
        sent_before = sms_server.sms.messages_sent
        result = sms_server.validate("carol", None)
        assert result.status is ValidateStatus.CHALLENGE_PENDING
        assert sms_server.sms.messages_sent == sent_before

    def test_correct_code_accepted_and_consumed(self, sms_server, clock):
        sms_server.validate("carol", None)
        clock.advance(10)
        code = sms_server.sms.latest("5125551234").body.split()[-1]
        assert sms_server.validate("carol", code).ok
        assert not sms_server.validate("carol", code).ok

    def test_wrong_code_leaves_challenge_valid(self, sms_server, clock):
        """Section 3.2: on mismatch "the token code remains valid"."""
        sms_server.validate("carol", None)
        clock.advance(10)
        code = sms_server.sms.latest("5125551234").body.split()[-1]
        assert not sms_server.validate("carol", "000000").ok
        assert sms_server.validate("carol", code).ok

    def test_expired_code_rejected(self, sms_server, clock):
        """The delayed-SMS failure: delivery after the validity window."""
        sms_server.validate("carol", None)
        clock.advance(10)
        code = sms_server.sms.latest("5125551234").body.split()[-1]
        clock.advance(400)  # past the 300 s validity
        result = sms_server.validate("carol", code)
        assert not result.ok and "expired" in result.reason

    def test_new_challenge_after_expiry(self, sms_server, clock):
        sms_server.validate("carol", None)
        clock.advance(400)
        result = sms_server.validate("carol", None)
        assert result.status is ValidateStatus.CHALLENGE_SENT
        assert sms_server.sms.messages_sent == 2

    def test_code_without_challenge_rejected(self, sms_server):
        assert not sms_server.validate("carol", "123456").ok


class TestAdminOperations:
    def test_resync_drifted_token(self, server, clock):
        device = soft_device(server, clock)
        device.skew = 3000  # 50 minutes fast: validation fails
        assert not server.validate("alice", device.current_code()).ok
        code1 = device.current_code()
        code2 = device.code_at(clock.now() + 30)
        assert server.resync("alice", code1, code2)
        device_now = device.code_at(clock.now() + 60)
        clock.advance(60)
        assert server.validate("alice", device_now).ok

    def test_resync_wrong_codes_fails(self, server, clock):
        soft_device(server, clock)
        assert not server.resync("alice", "111111", "222222")

    def test_resync_sms_returns_false(self, server):
        server.enroll_sms("carol", "5125551234")
        assert not server.resync("carol", "111111", "222222")

    def test_unpair_removes_everything(self, server, clock):
        soft_device(server, clock)
        assert server.unpair("alice") == 1
        assert not server.has_pairing("alice")
        assert server.validate("alice", "123456").status is ValidateStatus.NO_TOKEN

    def test_a_rolled_back_unpair_keeps_the_replay_floor(self, server, clock, monkeypatch):
        device = soft_device(server, clock)
        code = device.current_code()
        assert server.validate("alice", code).ok

        def fail(user_id):
            raise RuntimeError("challenge store down")

        monkeypatch.setattr(server.challenges, "exists", lambda user_id: True)
        monkeypatch.setattr(server.challenges, "delete", fail)
        with pytest.raises(RuntimeError):
            server.unpair("alice")
        assert server.has_pairing("alice")
        assert not server.validate("alice", code).ok  # still a replay

    def test_unpair_clears_sms_challenge(self, server):
        server.enroll_sms("carol", "5125551234")
        server.validate("carol", None)
        server.unpair("carol")
        assert not server.db.table("challenges").exists("carol")

    def test_token_count_by_type(self, server, clock):
        server.enroll_soft("a")
        server.enroll_sms("b", "5125551111")
        server.enroll_static("c", "123456")
        assert server.token_count_by_type() == {"soft": 1, "sms": 1, "static": 1}


class TestAudit:
    def test_validation_audited(self, server, clock):
        device = soft_device(server, clock)
        server.validate("alice", device.current_code())
        server.validate("alice", "000000")
        assert server.audit.success_count("validate") == 1
        assert server.audit.failure_count("validate") >= 1

    def test_enrollment_audited(self, server):
        server.enroll_soft("alice")
        entries = server.audit.entries(user_id="alice", action="enroll")
        assert len(entries) == 1 and entries[0].detail == "soft"

    def test_audit_timestamps_from_clock(self, server, clock):
        server.enroll_soft("alice")
        entry = server.audit.entries()[-1]
        assert entry.timestamp == clock.now()


class TestConfigValidation:
    def test_defaults_valid(self):
        OTPServerConfig()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            OTPServerConfig(lockout_threshold=0)

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            OTPServerConfig(drift_seconds=-1)
        assert server_module.TOTP_STEP > 0

    def test_invalid_digits(self):
        assert 6 <= server_module.DIGITS <= 10

    def test_invalid_sms_validity(self):
        assert stages.SMS_CODE_VALIDITY > 0 and stages.HOTP_LOOK_AHEAD >= 0
