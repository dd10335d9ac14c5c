"""Event-based (HOTP) tokens: counter sync, look-ahead, replay."""

import random

import pytest

from repro.authflow import stages
from repro.common.clock import VirtualClock
from repro.crypto.hotp import hotp
from repro.otpserver.server import OTPServer, OTPServerConfig
from repro.otpserver.tokens import TokenType


class EventFob:
    """A press-counter device."""

    def __init__(self, secret):
        self.secret = secret
        self.counter = 0

    def press(self):
        code = hotp(self.secret, self.counter)
        self.counter += 1
        return code


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def rig(clock):
    server = OTPServer(clock=clock, rng=random.Random(1))
    serial, secret = server.enroll_hotp("alice")
    return server, EventFob(secret), serial


class TestHOTPTokens:
    def test_enrollment(self, rig):
        server, _, serial = rig
        assert serial.startswith("LSHO")
        assert server.pairing_type("alice") is TokenType.HOTP

    def test_sequential_presses_validate(self, rig):
        server, fob, _ = rig
        for _ in range(5):
            assert server.validate("alice", fob.press()).ok

    def test_replay_rejected(self, rig):
        server, fob, _ = rig
        code = fob.press()
        assert server.validate("alice", code).ok
        assert not server.validate("alice", code).ok

    def test_skipped_presses_within_window(self, rig):
        """The user pressed the button in their pocket a few times."""
        server, fob, _ = rig
        for _ in range(7):  # codes never submitted
            fob.press()
        assert server.validate("alice", fob.press()).ok

    def test_beyond_look_ahead_rejected(self, rig):
        server, fob, _ = rig
        for _ in range(25):  # way past the 10-code window
            fob.press()
        assert not server.validate("alice", fob.press()).ok

    def test_skipped_codes_invalidated_after_later_match(self, rig):
        """Matching counter N consumes everything <= N."""
        server, fob, _ = rig
        early = fob.press()
        fob.press()
        late = fob.press()
        assert server.validate("alice", late).ok
        assert not server.validate("alice", early).ok

    def test_failcount_and_lockout_apply(self, clock):
        server = OTPServer(
            clock=clock, config=OTPServerConfig(lockout_threshold=5),
            rng=random.Random(2),
        )
        server.enroll_hotp("bob")
        for _ in range(5):
            server.validate("bob", "000000")
        assert server.is_locked("bob")

    def test_mutually_exclusive_with_other_pairings(self, rig):
        server, _, _ = rig
        from repro.common.errors import ValidationError

        with pytest.raises(ValidationError):
            server.enroll_soft("alice")

    def test_custom_look_ahead(self, clock, monkeypatch):
        monkeypatch.setattr(stages, "HOTP_LOOK_AHEAD", 2)
        server = OTPServer(clock=clock, rng=random.Random(3))
        _, secret = server.enroll_hotp("carol")
        fob = EventFob(secret)
        for _ in range(3):
            fob.press()
        assert not server.validate("carol", fob.press()).ok


class TestLookAheadEdges:
    """The exact fenceposts of the counter search window.

    The window is inclusive: with the server counter at ``c`` and
    ``look_ahead`` of ``w``, counters ``c .. c + w`` match and ``c + w + 1``
    does not.
    """

    LOOK_AHEAD = stages.HOTP_LOOK_AHEAD

    def _server(self, seed):
        clock = VirtualClock.at("2016-10-05T09:00:00")
        server = OTPServer(clock=clock, rng=random.Random(seed))
        _, secret = server.enroll_hotp("dave")
        return server, secret

    def test_code_at_window_end_validates(self):
        server, secret = self._server(4)
        assert server.validate("dave", hotp(secret, self.LOOK_AHEAD)).ok

    def test_code_one_past_window_rejects(self):
        server, secret = self._server(5)
        assert not server.validate("dave", hotp(secret, self.LOOK_AHEAD + 1)).ok
        # The failed probe must not move the counter: the window end
        # itself still validates afterwards.
        assert server.validate("dave", hotp(secret, self.LOOK_AHEAD)).ok

    def test_validated_code_advances_counter_past_match(self):
        server, secret = self._server(6)
        assert server.validate("dave", hotp(secret, self.LOOK_AHEAD)).ok
        # Counter is now look_ahead + 1: the matched code and everything
        # before it are consumed...
        assert not server.validate("dave", hotp(secret, self.LOOK_AHEAD)).ok
        assert not server.validate("dave", hotp(secret, 3)).ok
        # ...the next press is live, and the window slid with the counter.
        assert server.validate("dave", hotp(secret, self.LOOK_AHEAD + 1)).ok
        new_end = (self.LOOK_AHEAD + 2) + self.LOOK_AHEAD
        assert server.validate("dave", hotp(secret, new_end)).ok
