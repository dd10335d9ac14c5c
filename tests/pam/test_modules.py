"""The four in-house PAM modules and the Figure 1/2 decision trees."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import IdentityBackend, PairingStatus
from repro.otpserver.server import OTPServer
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession, PAMStack
from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.pubkey import PublicKeySuccessModule
from repro.pam.modules.solaris import SolarisMFAModule
from repro.pam.modules.token import MFATokenModule
from repro.pam.modules.unix_password import UnixPasswordModule
from repro.policy import EnforcementLadder, EnforcementMode, PolicyEngine
from repro.radius.client import RADIUSClient
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.ssh.authlog import AuthLog


@pytest.fixture
def clock():
    return VirtualClock.at("2016-09-15T12:00:00")


@pytest.fixture
def rig(clock):
    """Identity + OTP + RADIUS wiring shared by the token-module tests."""

    class Rig:
        pass

    rig = Rig()
    rig.identity = IdentityBackend()
    rig.identity.create_account("alice", "a@x.edu", password="pw")
    rig.identity.create_account("bob", "b@x.edu", password="pw")

    class Backend:
        """Username-keyed OTP backend (tests enroll by username)."""

        def __init__(self, otp):
            self.otp = otp

        def validate(self, username, code):
            return self.otp.validate(username, code)

    rig.otp = OTPServer(clock=clock, rng=random.Random(1))
    rig.fabric = UDPFabric(rng=random.Random(2))
    server = RADIUSServer("10.0.0.1:1812", rig.fabric, Backend(rig.otp))
    server.add_client("10.", b"secret")  # the login-node subnet
    rig.radius = RADIUSClient(
        rig.fabric, ["10.0.0.1:1812"], b"secret", "10.3.1.5", rng=random.Random(3)
    )
    rig.clock = clock
    return rig


def token_module(rig, mode, deadline=None, **kwargs):
    """A token module over an engine that carries just that ladder."""
    return MFATokenModule(
        ldap=rig.identity.ldap,
        radius=rig.radius,
        policy=PolicyEngine(ladder=EnforcementLadder(mode, deadline)),
        **kwargs,
    )


def make_session(clock, username="alice", ip="198.51.100.7", responses=None):
    return PAMSession(
        username=username,
        remote_ip=ip,
        conversation=ScriptedConversation(responses or []),
        clock=clock,
    )


class TestPublicKeySuccessModule:
    def test_recent_acceptance_found(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "alice", "198.51.100.7")
        module = PublicKeySuccessModule(log)
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.items["first_factor"] == "publickey"

    def test_no_entry_fails(self, clock):
        module = PublicKeySuccessModule(AuthLog(clock))
        assert module.authenticate(make_session(clock)) is PAMResult.AUTH_ERR

    def test_wrong_ip_fails(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "alice", "203.0.113.99")
        module = PublicKeySuccessModule(log)
        assert module.authenticate(make_session(clock)) is PAMResult.AUTH_ERR

    def test_wrong_user_fails(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "bob", "198.51.100.7")
        module = PublicKeySuccessModule(log)
        assert module.authenticate(make_session(clock)) is PAMResult.AUTH_ERR

    def test_stale_entry_fails(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "alice", "198.51.100.7")
        clock.advance(60)  # past the 30 s window
        module = PublicKeySuccessModule(log)
        assert module.authenticate(make_session(clock)) is PAMResult.AUTH_ERR

    def test_password_events_dont_count(self, clock):
        log = AuthLog(clock)
        log.append("accepted_password", "alice", "198.51.100.7")
        module = PublicKeySuccessModule(log)
        assert module.authenticate(make_session(clock)) is PAMResult.AUTH_ERR


class TestUnixPasswordModule:
    def test_correct_password(self, rig, clock):
        module = UnixPasswordModule(rig.identity)
        session = make_session(clock, responses=["pw"])
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.items["first_factor"] == "password"

    def test_wrong_password(self, rig, clock):
        module = UnixPasswordModule(rig.identity)
        assert (
            module.authenticate(make_session(clock, responses=["nope"]))
            is PAMResult.AUTH_ERR
        )

    def test_no_conversation_fails(self, rig, clock):
        module = UnixPasswordModule(rig.identity)
        session = PAMSession(username="alice", remote_ip="1.2.3.4", clock=clock)
        assert module.authenticate(session) is PAMResult.AUTH_ERR


class TestExemptionModule:
    def test_granted(self, clock):
        acl = InMemoryExemptionACL("+ : alice : ALL : ALL", clock=clock)
        module = MFAExemptionModule(PolicyEngine(exemptions=acl))
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.items["mfa_exempt"] is True

    def test_denied(self, clock):
        acl = InMemoryExemptionACL("", clock=clock)
        module = MFAExemptionModule(PolicyEngine(exemptions=acl))
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.AUTH_ERR
        assert "mfa_exempt" not in session.items


class TestTokenModuleModes:
    def make_module(self, rig, mode, deadline=None):
        return token_module(rig, mode, deadline)

    def pair_soft(self, rig, username="alice"):
        _, secret = rig.otp.enroll_soft(username)
        rig.identity.notify_pairing(username, PairingStatus.SOFT)
        return TOTPGenerator(secret=secret, clock=rig.clock)

    def test_off_mode_always_succeeds(self, rig, clock):
        module = self.make_module(rig, "off")
        assert module.authenticate(make_session(clock)) is PAMResult.SUCCESS

    def test_paired_mode_unpaired_passes(self, rig, clock):
        module = self.make_module(rig, "paired")
        assert module.authenticate(make_session(clock)) is PAMResult.SUCCESS

    def test_paired_mode_paired_challenged(self, rig, clock):
        device = self.pair_soft(rig)
        module = self.make_module(rig, "paired")
        session = make_session(clock, responses=[device.current_code()])
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.items["second_factor"] == "soft"

    def test_paired_mode_wrong_code_denied(self, rig, clock):
        self.pair_soft(rig)
        module = self.make_module(rig, "paired")
        session = make_session(clock, responses=["000000"])
        assert module.authenticate(session) is PAMResult.AUTH_ERR

    def test_countdown_unpaired_sees_message_and_acks(self, rig, clock):
        module = self.make_module(rig, "countdown", deadline="2016-10-04")
        session = make_session(clock, responses=[""])  # the return-key ack
        assert module.authenticate(session) is PAMResult.SUCCESS
        conversation = session.conversation
        messages = " ".join(conversation.messages())
        assert "mandatory in 19 day(s)" in messages
        assert "https://portal.center.edu/mfa" in messages
        # The acknowledgement prompt was issued.
        assert any(t[0] == "prompt_echo_on" for t in conversation.transcript)
        assert session.items["mfa_countdown_days"] == 19

    def test_countdown_paired_challenged(self, rig, clock):
        device = self.pair_soft(rig)
        module = self.make_module(rig, "countdown", deadline="2016-10-04")
        session = make_session(clock, responses=[device.current_code()])
        assert module.authenticate(session) is PAMResult.SUCCESS

    def test_countdown_past_deadline_becomes_full(self, rig, clock):
        module = self.make_module(rig, "countdown", deadline="2016-09-01")
        # Unpaired user past the deadline: prompted and denied.
        session = make_session(clock, responses=["123456"])
        assert module.authenticate(session) is PAMResult.AUTH_ERR

    def test_full_mode_unpaired_denied(self, rig, clock):
        module = self.make_module(rig, "full")
        session = make_session(clock, responses=["123456"])
        assert module.authenticate(session) is PAMResult.AUTH_ERR

    def test_full_mode_prompts_even_unpaired(self, rig, clock):
        """Full mode prompts regardless, leaking nothing about pairing."""
        module = self.make_module(rig, "full")
        session = make_session(clock, responses=["123456"])
        module.authenticate(session)
        assert any(
            t[0] == "prompt_echo_off" for t in session.conversation.transcript
        )

    def test_full_mode_paired_succeeds(self, rig, clock):
        device = self.pair_soft(rig)
        module = self.make_module(rig, "full")
        session = make_session(clock, responses=[device.current_code()])
        assert module.authenticate(session) is PAMResult.SUCCESS


class TestTokenModuleConfigErrors:
    def test_bad_mode_falls_back_to_full(self, rig):
        module = token_module(rig, "banana")
        assert module.effective_mode is EnforcementMode.FULL
        assert module.had_config_error

    def test_bad_deadline_falls_back_to_full(self, rig):
        module = token_module(rig, "countdown", deadline="whenever")
        assert module.effective_mode is EnforcementMode.FULL
        assert module.had_config_error

    def test_countdown_without_deadline_is_config_error(self, rig):
        module = token_module(rig, "countdown")
        assert module.effective_mode is EnforcementMode.FULL

    def test_valid_config_no_error(self, rig):
        module = token_module(rig, "countdown", deadline="2016-10-04")
        assert module.effective_mode is EnforcementMode.COUNTDOWN
        assert not module.had_config_error


class TestTokenModuleSMS:
    def test_sms_flow_through_module(self, rig, clock):
        rig.otp.enroll_sms("alice", "5125551234")
        rig.identity.notify_pairing("alice", PairingStatus.SMS)
        module = token_module(rig, "full")

        class SMSConversation(ScriptedConversation):
            def prompt_echo_off(self, prompt):
                clock.advance(10)  # SMS delivery time
                message = rig.otp.sms.latest("5125551234")
                code = message.body.split()[-1]
                self.transcript.append(("prompt_echo_off", prompt, code))
                return code

        session = PAMSession(
            username="alice", remote_ip="1.2.3.4",
            conversation=SMSConversation(), clock=clock,
        )
        assert module.authenticate(session) is PAMResult.SUCCESS
        messages = " ".join(session.conversation.messages())
        assert "sent" in messages.lower()


class TestSolarisModule:
    def test_pubkey_and_exempt_succeeds(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "alice", "198.51.100.7")
        acl = InMemoryExemptionACL("+ : alice : ALL : ALL", clock=clock)
        module = SolarisMFAModule(log, PolicyEngine(exemptions=acl))
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.items["first_factor"] == "publickey"
        assert session.items["mfa_exempt"] is True

    def test_pubkey_only_continues(self, clock):
        log = AuthLog(clock)
        log.append("accepted_publickey", "alice", "198.51.100.7")
        module = SolarisMFAModule(
            log, PolicyEngine(exemptions=InMemoryExemptionACL("", clock=clock))
        )
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.IGNORE
        assert session.items["first_factor"] == "publickey"
        assert "mfa_exempt" not in session.items

    def test_exempt_only_continues(self, clock):
        acl = InMemoryExemptionACL("+ : alice : ALL : ALL", clock=clock)
        module = SolarisMFAModule(AuthLog(clock), PolicyEngine(exemptions=acl))
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.IGNORE
        assert session.items["mfa_exempt"] is True

    def test_neither_continues(self, clock):
        module = SolarisMFAModule(
            AuthLog(clock), PolicyEngine(exemptions=InMemoryExemptionACL("", clock=clock))
        )
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.IGNORE
        assert not session.items


class TestFigure1StackPaths:
    """Exhaustive walk of Figure 1's decision tree through a real stack."""

    @pytest.fixture
    def figure1(self, rig, clock):
        log = AuthLog(clock)
        acl = InMemoryExemptionACL("+ : gateway01 : ALL : ALL", clock=clock)
        rig.identity.create_account("gateway01", "g@x.edu", password="gpw")
        stack = PAMStack("sshd")
        stack.append("[success=1 default=ignore]", PublicKeySuccessModule(log))
        stack.append("requisite", UnixPasswordModule(rig.identity))
        stack.append("sufficient", MFAExemptionModule(PolicyEngine(exemptions=acl)))
        stack.append("requisite", token_module(rig, "full"))
        rig.log = log
        rig.stack = stack
        return rig

    def pair(self, rig):
        _, secret = rig.otp.enroll_soft("alice")
        rig.identity.notify_pairing("alice", PairingStatus.SOFT)
        return TOTPGenerator(secret=secret, clock=rig.clock)

    def test_pubkey_yes_exempt_no_token_yes(self, figure1, clock):
        device = self.pair(figure1)
        figure1.log.append("accepted_publickey", "alice", "198.51.100.7")
        session = make_session(clock, responses=[device.current_code()])
        assert figure1.stack.authenticate(session) is PAMResult.SUCCESS
        assert session.items["first_factor"] == "publickey"

    def test_pubkey_yes_exempt_no_token_no(self, figure1, clock):
        self.pair(figure1)
        figure1.log.append("accepted_publickey", "alice", "198.51.100.7")
        session = make_session(clock, responses=["000000"])
        assert figure1.stack.authenticate(session) is PAMResult.AUTH_ERR

    def test_pubkey_no_password_yes_token_yes(self, figure1, clock):
        device = self.pair(figure1)
        session = make_session(clock, responses=["pw", device.current_code()])
        assert figure1.stack.authenticate(session) is PAMResult.SUCCESS
        assert session.items["first_factor"] == "password"

    def test_pubkey_no_password_no_denied_before_second_factor(self, figure1, clock):
        """Bad first factor never reaches the token module — this is the
        brute-force filtering Section 3.1 describes."""
        self.pair(figure1)
        before = figure1.otp.validate_requests
        session = make_session(clock, responses=["wrong-password"])
        assert figure1.stack.authenticate(session) is PAMResult.AUTH_ERR
        assert figure1.otp.validate_requests == before  # LinOTP never queried

    def test_exemption_skips_token_entirely(self, figure1, clock):
        session = make_session(
            clock, username="gateway01", responses=["gpw"]
        )
        before = figure1.otp.validate_requests
        assert figure1.stack.authenticate(session) is PAMResult.SUCCESS
        assert session.items["mfa_exempt"] is True
        assert figure1.otp.validate_requests == before

    def test_unpaired_full_mode_denied(self, figure1, clock):
        session = make_session(clock, username="bob", responses=["pw", "123456"])
        assert figure1.stack.authenticate(session) is PAMResult.AUTH_ERR


class TestPassiveNotice:
    """Section 4.2's first messaging wave: a passive notice in paired mode."""

    def test_unpaired_sees_notice_without_ack(self, rig, clock):
        module = token_module(rig, "paired", passive_notice=True)
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.SUCCESS
        messages = " ".join(session.conversation.messages())
        assert "pair a device" in messages
        # Passive: no prompt of any kind was issued.
        assert not any(
            t[0].startswith("prompt") for t in session.conversation.transcript
        )

    def test_default_is_silent(self, rig, clock):
        module = token_module(rig, "paired")
        session = make_session(clock)
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert session.conversation.messages() == []

    def test_paired_user_not_shown_notice(self, rig, clock):
        _, secret = rig.otp.enroll_soft("alice")
        rig.identity.notify_pairing("alice", PairingStatus.SOFT)
        device = TOTPGenerator(secret=secret, clock=clock)
        module = token_module(rig, "paired", passive_notice=True)
        session = make_session(clock, responses=[device.current_code()])
        assert module.authenticate(session) is PAMResult.SUCCESS
        assert not any(
            "pair a device" in m for m in session.conversation.messages()
        )
