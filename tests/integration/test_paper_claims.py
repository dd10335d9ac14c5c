"""Paper-claims index: one test per direct quote from the paper.

Most of these behaviours have deeper tests elsewhere; this file is the
navigable cross-reference between the paper's sentences and the library,
so a reviewer can check any quoted claim in one place.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver import sms_gateway
from repro.ssh import KeyPair, SSHClient


@pytest.fixture
def world():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)

    class World:
        pass

    w = World()
    w.clock, w.center, w.system, w.device = clock, center, system, device
    w.node = system.login_node()
    return w


class TestSection1:
    def test_three_token_options_plus_first_factor(self, world):
        """"users a choice between three additional, mutually exclusive
        authentication options" — soft, SMS, hard; one pairing at a time."""
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError, match="already has a token"):
            world.center.pair_sms("alice", "5125550000")

    def test_six_digit_timed_code(self, world):
        """"a six digit, timed-based one time password"."""
        code = world.device.current_code()
        assert len(code) == 6 and code.isdigit()
        assert world.device.step == 30


class TestSection3_1:
    def test_shared_unique_user_id(self, world):
        """"a unique user ID that becomes common to both databases"."""
        account = world.center.identity.get("alice")
        ldap_uid = world.center.identity.ldap.get(account.dn).first("uidNumber")
        assert ldap_uid == account.uid
        assert world.center.otp.has_pairing(account.uid)

    def test_threshold_of_20_consecutive_failures(self, world):
        """"A threshold of 20 consecutive failed attempts must occur before
        a user account is temporarily deactivated"."""
        uid = world.center.uid_of("alice")
        for _ in range(19):
            world.center.otp.validate("alice", "000000")
        assert not world.center.otp.is_locked(uid)
        world.center.otp.validate("alice", "000000")
        assert world.center.otp.is_locked(uid)

    def test_lockout_visible_to_staff(self, world):
        """"this information is available to staff via an internal
        website"."""
        for _ in range(20):
            world.center.otp.validate("alice", "000000")
        assert world.center.otp.audit.lockout_events()


class TestSection3_2:
    def test_token_nullified_on_success(self, world):
        """"the provided token code is nullified"."""
        code = world.device.current_code()
        assert world.center.otp.validate("alice", code).ok
        assert not world.center.otp.validate("alice", code).ok

    def test_token_remains_valid_on_mismatch(self, world):
        """"In the event of a token mismatch, the token code remains
        valid"."""
        code = world.device.current_code()
        assert not world.center.otp.validate("alice", "000000").ok
        assert world.center.otp.validate("alice", code).ok


class TestSection3_3:
    def test_code_every_30_seconds(self, world):
        """"A code is generated every 30 seconds"."""
        first = world.device.current_code()
        world.clock.advance(30)
        assert world.device.current_code() != first

    def test_300_second_drift_tolerance(self, world):
        """"keep a time that does not drift more than ... 300 seconds"."""
        world.device.skew = 299
        assert world.center.otp.validate("alice", world.device.current_code()).ok

    def test_twilio_pricing(self, world):
        """"a flat rate of $1 per month plus each US-based text message
        costs an additional $0.0075"."""
        assert sms_gateway.MONTHLY_FLAT == 1.00
        assert sms_gateway.PER_MESSAGE_US == 0.0075

    def test_international_messages_cost_more(self, world):
        assert sms_gateway.PER_MESSAGE_INTL > sms_gateway.PER_MESSAGE_US

    def test_hard_tokens_preprogrammed(self, world):
        """"came pre-programmed with a secret key, all of which were
        provided at the time of batch purchase"."""
        batch = world.center.receive_hard_batch(3)
        for serial in batch.serials():
            assert len(batch.secret_for(serial)) == 20

    def test_static_training_codes_regenerable(self, world):
        """"The static token codes are easily regenerated once the training
        session is finished"."""
        world.center.create_user("train01", password="x")
        old = world.center.pair_training("train01")
        new = world.center.pair_training("train01")
        assert world.center.otp.validate("train01", new).ok
        assert not world.center.otp.validate("train01", old).ok


class TestSection3_4:
    def test_pubkey_info_not_provided_by_ssh(self, world):
        """"Information about the state of public key authentication is not
        provided from SSH to PAM" — the module greps the secure log."""
        key = KeyPair.generate(rng=random.Random(2))
        world.node.authorize_key("alice", key)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            world.node, "alice", key=key, token=world.device.current_code
        )
        assert result.success
        entries = world.node.authlog.recent(60, event="accepted_publickey")
        assert entries  # the log entry is the only channel

    def test_password_retry_budget(self, world):
        """"up to a maximum of two more times before SSH disconnect"."""
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(world.node, "alice", password="wrong",
                                   token="000000")
        assert result.password_attempts == 3

    def test_default_deny_exemptions(self, world):
        """"By default, all accounts are subject to multi-factor
        authentication and are denied an MFA exemption"."""
        assert not world.system.acl.check("alice", "198.51.100.7")

    def test_intra_system_traffic_free(self, world):
        """"an MFA exemption is configured to allow any SSH traffic to move
        freely from IP addresses that are a part of that particular
        system"."""
        internal = SSHClient(f"{world.system.ip_prefix}.77")
        result, _ = internal.connect(world.node, "alice", password="pw")
        assert result.success and result.session_items.get("mfa_exempt")

    def test_config_error_defaults_to_full(self, world):
        """"if any configuration errors occur, the token module defaults to
        the fourth enforcement mode"."""
        from repro.policy import EnforcementMode
        from repro.pam.registry import FIGURE1_CONFIG

        world.system.set_mode("off")
        world.node.pam.write_config(
            "sshd", FIGURE1_CONFIG.format(mode="not-a-mode", deadline_opt="")
        )
        module = world.node.pam_stack.entries[-1].module
        assert module.effective_mode is EnforcementMode.FULL
        assert module.had_config_error
        assert world.system.mode == "full"


class TestSection5:
    def test_multiplexing_one_auth_many_connections(self, world):
        """"one connection to be established via MFA and subsequent
        connections to the same host to utilize the already existing SSH
        connection"."""
        client = SSHClient("198.51.100.7", multiplex=True)
        result, _ = client.connect(
            world.node, "alice", password="pw", token=world.device.current_code
        )
        accepted = world.node.logins_accepted
        assert client.run_batch(world.node, "alice", 5) == 5
        assert world.node.logins_accepted == accepted  # no re-auth


class TestConclusions:
    def test_over_half_a_million_logins_headroom(self, world):
        """"With over half a million successful log ins and counting" —
        the audit log can absorb that volume (spot-check the counters)."""
        for _ in range(100):
            world.clock.advance(31)
            assert world.center.otp.validate("alice", world.device.current_code()).ok
        assert world.center.otp.audit.success_count("validate") == 100
