"""Failure injection across the stack: outages, loss, drift, lockouts."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.sms_gateway import CarrierProfile, SMSGateway
from repro.otpserver.server import OTPServer
from repro.ssh import SSHClient


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def build(clock, **kwargs):
    center = MFACenter(clock=clock, rng=random.Random(7), **kwargs)
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    return center, system, device


class TestRADIUSOutages:
    def test_one_server_down_logins_continue(self, clock):
        center, system, device = build(clock)
        center.fabric.set_down(center.radius_servers[0].address)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success

    def test_two_of_three_down_logins_continue(self, clock):
        center, system, device = build(clock)
        for server in center.radius_servers[:2]:
            center.fabric.set_down(server.address)
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success

    def test_all_down_denies_with_message(self, clock):
        center, system, device = build(clock)
        for server in center.radius_servers:
            center.fabric.set_down(server.address)
        client = SSHClient("198.51.100.7")
        result, conversation = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert not result.success
        assert any("unavailable" in m for m in conversation.displayed)

    def test_recovery_restores_service(self, clock):
        center, system, device = build(clock)
        for server in center.radius_servers:
            center.fabric.set_down(server.address)
        client = SSHClient("198.51.100.7")
        client.connect(system.login_node(), "alice", password="pw",
                       token=device.current_code)
        for server in center.radius_servers:
            center.fabric.set_down(server.address, False)
        clock.advance(31)
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success


class TestPacketLoss:
    def test_logins_survive_lossy_network(self, clock):
        center, system, device = build(clock, fabric_loss_rate=0.25)
        client = SSHClient("198.51.100.7")
        successes = 0
        for _ in range(20):
            clock.advance(31)
            result, _ = client.connect(
                system.login_node(), "alice", password="pw",
                token=device.current_code,
            )
            successes += bool(result.success)
        assert successes >= 18


class TestClockDrift:
    def test_moderate_drift_tolerated(self, clock):
        center, system, device = build(clock)
        device.skew = 250  # inside the 300 s tolerance
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success

    def test_excess_drift_denied_then_resynced(self, clock):
        center, system, device = build(clock)
        device.skew = 1200  # 20 minutes fast
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert not result.success
        # Staff resync from two consecutive device codes (the admin UI op).
        uid = center.uid_of("alice")
        code1 = device.current_code()
        code2 = device.code_at(clock.now() + 30)
        assert center.otp.resync(uid, code1, code2)
        clock.advance(60)
        result, _ = client.connect(
            system.login_node(), "alice", password="pw", token=device.current_code
        )
        assert result.success


class TestLockoutRecovery:
    def test_brute_force_locks_then_staff_clears(self, clock):
        center, system, device = build(clock)
        client = SSHClient("198.51.100.7")
        node = system.login_node()
        # An attacker who knows the password burns 20 token guesses.
        for _ in range(20):
            result, _ = client.connect(node, "alice", password="pw", token="000000")
            assert not result.success
        # Now even the right code is refused: the account is deactivated.
        clock.advance(31)
        result, _ = client.connect(node, "alice", password="pw",
                                   token=device.current_code)
        assert not result.success
        # Staff see the lockout and clear it.
        assert center.otp.audit.lockout_events()
        center.otp.clear_failcount(center.uid_of("alice"))
        clock.advance(31)
        result, _ = client.connect(node, "alice", password="pw",
                                   token=device.current_code)
        assert result.success

    def test_wrong_password_does_not_reach_linotp(self, clock):
        """First-factor gating: token-code guesses require the password."""
        center, system, _ = build(clock)
        client = SSHClient("198.51.100.7")
        before = center.otp.validate_requests
        for _ in range(10):
            client.connect(system.login_node(), "alice",
                           password="wrong", token="000000")
        assert center.otp.validate_requests == before


class TestDelayedSMS:
    def test_stalled_sms_delivers_expired_code(self, clock):
        """The Section 5 carrier failure, reproduced end to end."""
        gateway = SMSGateway(
            clock,
            carrier=CarrierProfile(stall_probability=1.0, stall_delay=600.0),
            rng=random.Random(1),
        )
        otp = OTPServer(clock=clock, sms_gateway=gateway, rng=random.Random(2))
        otp.enroll_sms("carol", "5125551234")
        assert otp.validate("carol", None).status.value == "challenge_sent"
        # The message is stuck at the carrier past the 300 s validity.
        clock.advance(1300)
        message = gateway.latest("5125551234")
        assert message is not None  # it did eventually arrive...
        code = message.body.split()[-1]
        result = otp.validate("carol", code)
        assert not result.ok  # ...but the code had already expired
        # The user simply requests a fresh one.
        assert otp.validate("carol", None).status.value == "challenge_sent"


class TestReplayAttacks:
    def test_sniffed_code_cannot_be_replayed(self, clock):
        center, system, device = build(clock)
        client = SSHClient("198.51.100.7")
        attacker = SSHClient("203.0.113.66")
        node = system.login_node()
        sniffed = device.current_code()
        result, _ = client.connect(node, "alice", password="pw", token=sniffed)
        assert result.success
        # The attacker has the password AND the just-used code: still denied.
        result, _ = attacker.connect(node, "alice", password="pw", token=sniffed)
        assert not result.success
