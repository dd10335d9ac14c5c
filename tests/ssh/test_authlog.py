"""Secure log: formatting, windowed queries, rotation."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.ssh.authlog import AuthLog


@pytest.fixture
def clock():
    return VirtualClock(1000.0)


@pytest.fixture
def log(clock):
    return AuthLog(clock)


class TestAppendAndFormat:
    def test_openssh_style_lines(self, log):
        entry = log.append("accepted_publickey", "alice", "1.2.3.4", detail="SHA256:xx")
        assert "Accepted publickey for alice from 1.2.3.4" in entry.format()
        entry = log.append("accepted_password", "alice", "1.2.3.4")
        assert "Accepted password for alice" in entry.format()
        entry = log.append("failed_password", "alice", "1.2.3.4")
        assert "Failed password" in entry.format()

    def test_entry_audit_format(self, log):
        entry = log.append("session_open", "alice", "1.2.3.4", tty=True)
        line = entry.format()
        assert "user=alice" in line and "tty=yes" in line

    def test_tty_flag_recorded(self, log):
        assert log.append("session_open", "a", "1.1.1.1", tty=False).tty is False


class TestQueries:
    def test_recent_window(self, log, clock):
        log.append("accepted_publickey", "alice", "1.2.3.4")
        clock.advance(100)
        log.append("accepted_publickey", "bob", "5.6.7.8")
        recent = log.recent(50)
        assert len(recent) == 1 and recent[0].username == "bob"

    def test_recent_filters(self, log):
        log.append("accepted_publickey", "alice", "1.2.3.4")
        log.append("session_open", "alice", "1.2.3.4")
        log.append("accepted_publickey", "bob", "1.2.3.4")
        assert len(log.recent(60, event="accepted_publickey")) == 2
        assert len(log.recent(60, event="accepted_publickey", username="alice")) == 1

    def test_publickey_accepted_recently(self, log, clock):
        log.append("accepted_publickey", "alice", "1.2.3.4")
        assert log.publickey_accepted_recently("alice", "1.2.3.4")
        assert not log.publickey_accepted_recently("alice", "9.9.9.9")
        assert not log.publickey_accepted_recently("bob", "1.2.3.4")
        clock.advance(31)
        assert not log.publickey_accepted_recently("alice", "1.2.3.4")

    def test_publickey_acceptance_names_its_port(self, log, clock):
        entry = log.append("accepted_publickey", "alice", "1.2.3.4", port=53422)
        assert "from 1.2.3.4 port 53422 ssh2" in entry.format()
        assert log.publickey_accepted_recently("alice", "1.2.3.4", 30.0, 53422)
        assert not log.publickey_accepted_recently("alice", "1.2.3.4", 30.0, 53423)
        assert not log.publickey_accepted_recently("alice", "1.2.3.4")

    def test_ordering_oldest_first(self, log, clock):
        log.append("session_open", "a", "1.1.1.1")
        clock.advance(1)
        log.append("session_open", "b", "1.1.1.1")
        recent = log.recent(60)
        assert [e.username for e in recent] == ["a", "b"]


class TestRotation:
    def test_rotation_bounds_memory(self, clock):
        log = AuthLog(clock, max_entries=100)
        for i in range(150):
            log.append("session_open", f"u{i}", "1.1.1.1")
        assert len(log) <= 101
        # The newest entries survive rotation.
        assert log.entries()[-1].username == "u149"

    def test_publickey_lookup_answers_what_a_scan_of_the_kept_log_does(self, clock):
        """Across rotations and at the window's edges, the lookup agrees
        with a scan of the entries the log still holds."""
        log = AuthLog(clock, max_entries=8)
        rng = random.Random(5)
        pairs = [(u, ip) for u in ("alice", "bob") for ip in ("1.1.1.1", "2.2.2.2")]
        for _ in range(400):
            user, ip = rng.choice(pairs)
            log.append(rng.choice(["accepted_publickey", "session_open"]), user, ip)
            clock.advance(rng.choice([0.0, 0.5, 10.0, 30.0]))
            for user, ip in pairs:
                for window in (0.0, 10.0, 30.0):
                    scanned = any(
                        entry.remote_ip == ip
                        for entry in log.recent(window, "accepted_publickey", user)
                    )
                    assert log.publickey_accepted_recently(user, ip, window) == scanned

    def test_rotated_out_acceptance_is_forgotten(self, clock):
        log = AuthLog(clock, max_entries=4)
        log.append("accepted_publickey", "alice", "1.1.1.1")
        clock.advance(30)  # the window's edge: still this connection
        assert log.publickey_accepted_recently("alice", "1.1.1.1", 30.0)
        for _ in range(4):
            log.append("session_open", "bob", "2.2.2.2")
        assert "alice" not in {entry.username for entry in log.entries()}
        assert not log.publickey_accepted_recently("alice", "1.1.1.1", 30.0)
