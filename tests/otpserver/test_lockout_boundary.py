"""The 20-strike boundary, exactly.

"if a user fails 20 consecutive validation attempts, the corresponding
token is deactivated" — these tests pin the fencepost: failure number
``threshold`` locks (not ``threshold + 1``), and a success one failure
short of the line resets the count entirely.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.otpserver import OTPServer, OTPServerConfig, ValidateStatus

THRESHOLD = 20


@pytest.fixture
def server():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    server = OTPServer(
        clock=clock,
        config=OTPServerConfig(lockout_threshold=THRESHOLD),
        rng=random.Random(7),
    )
    server.enroll_static("alice", "424242")
    return server


class TestLockoutBoundary:
    def test_threshold_minus_one_failures_do_not_lock(self, server):
        for _ in range(THRESHOLD - 1):
            assert not server.validate("alice", "000000").ok
        assert not server.is_locked("alice")
        (token,) = server.user_tokens("alice")
        assert token.failcount == THRESHOLD - 1
        assert server.validate("alice", "424242").ok

    def test_exactly_threshold_failures_lock(self, server):
        for _ in range(THRESHOLD):
            server.validate("alice", "000000")
        assert server.is_locked("alice")
        result = server.validate("alice", "424242")
        assert result.status is ValidateStatus.LOCKED
        assert "deactivated" in result.reason

    def test_success_at_threshold_minus_one_resets_failcount(self, server):
        for _ in range(THRESHOLD - 1):
            server.validate("alice", "000000")
        assert server.validate("alice", "424242").ok
        (token,) = server.user_tokens("alice")
        assert token.failcount == 0
        # The slate is clean: another threshold-1 run still does not lock.
        for _ in range(THRESHOLD - 1):
            server.validate("alice", "000000")
        assert not server.is_locked("alice")

    def test_failures_after_lockout_keep_it_locked(self, server):
        for _ in range(THRESHOLD + 5):
            server.validate("alice", "000000")
        assert server.is_locked("alice")

    def test_clear_failcount_reactivates(self, server):
        for _ in range(THRESHOLD):
            server.validate("alice", "000000")
        assert server.is_locked("alice")
        server.clear_failcount("alice")
        assert not server.is_locked("alice")
        assert server.validate("alice", "424242").ok
