"""Audit log queries."""

import pytest

from repro.common.clock import VirtualClock
from repro.otpserver.audit import AuditLog


@pytest.fixture
def log():
    clock = VirtualClock(1000.0)
    audit = AuditLog(clock)
    audit.record("validate", "u1", "S1", success=True)
    clock.advance(10)
    audit.record("validate", "u1", "S1", success=False, detail="bad code")
    clock.advance(10)
    audit.record("validate", "u2", "S2", success=True)
    audit.record("lockout", "u3", "S3", success=False)
    return audit


class TestQueries:
    def test_length(self, log):
        assert len(log) == 4

    def test_filter_by_user(self, log):
        assert len(log.entries(user_id="u1")) == 2

    def test_filter_by_action(self, log):
        assert len(log.entries(action="validate")) == 3

    def test_filter_by_since(self, log):
        assert len(log.entries(since=1015.0)) == 2

    def test_combined_filters(self, log):
        entries = log.entries(user_id="u1", action="validate", since=1005.0)
        assert len(entries) == 1 and not entries[0].success

    def test_lockout_events(self, log):
        events = log.lockout_events()
        assert len(events) == 1 and events[0].user_id == "u3"

    def test_success_failure_counts(self, log):
        assert log.success_count("validate") == 2
        assert log.failure_count("validate") == 1

    def test_ids_sequential(self, log):
        ids = [e.entry_id for e in log.entries()]
        assert ids == sorted(ids)

    def test_entries_immutable(self, log):
        entry = log.entries()[0]
        with pytest.raises(AttributeError):
            entry.success = False
