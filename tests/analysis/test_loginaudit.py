"""The Section 4.1 login-audit pipeline."""

import pytest

from repro.common.clock import VirtualClock
from repro.analysis.loginaudit import LoginAuditor
from repro.ssh.authlog import AuthLog


@pytest.fixture
def log():
    clock = VirtualClock(0.0)
    authlog = AuthLog(clock)
    # Heavy automated user: 200 TTY-less entries from one host.
    for _ in range(200):
        authlog.append("session_open", "robot1", "203.0.113.5", tty=False)
    # Moderate automated user.
    for _ in range(80):
        authlog.append("session_open", "robot2", "203.0.113.6", tty=False)
    # Staff member: 50 mixed entries.
    for i in range(50):
        authlog.append("session_open", "staff1", "129.114.0.9", tty=i % 2 == 0)
    # Known gateway: enormous volume, but filtered out of targeting.
    for _ in range(500):
        authlog.append("session_open", "gateway01", "198.51.100.1", tty=False)
    # Ordinary interactive users.
    for i in range(20):
        authlog.append("session_open", f"user{i:02d}", f"198.51.0.{i}", tty=True)
    # Shared account: many origins.
    for i in range(30):
        authlog.append("session_open", "shared", f"10.{i}.1.1", tty=True)
    # Failed logins should not count as entries.
    authlog.append("auth_failure", "user00", "198.51.0.0")
    return authlog


@pytest.fixture
def auditor(log):
    return LoginAuditor(log.entries())


class TestAggregation:
    def test_user_count(self, auditor):
        assert len(auditor) == 25  # robot1, robot2, staff1, gateway01, 20 users, shared

    def test_entry_events_only(self, auditor):
        # The failed login did not count.
        assert auditor.activity("user00").total_events == 1

    def test_tty_accounting(self, auditor):
        staff = auditor.activity("staff1")
        assert staff.total_events == 50
        assert staff.tty_events == 25
        assert staff.notty_fraction == pytest.approx(0.5)

    def test_unknown_user_zero_activity(self, auditor):
        assert auditor.activity("ghost").total_events == 0


class TestRankingAndTargeting:
    def test_ranked_descending(self, auditor):
        ranked = auditor.ranked()
        counts = [a.total_events for a in ranked]
        assert counts == sorted(counts, reverse=True)
        assert ranked[0].username == "gateway01"

    def test_staff_threshold(self, auditor):
        assert auditor.staff_threshold(["staff1"]) == 50

    def test_targets_above_staff_filtered(self, auditor):
        """Users above the staff cutoff, minus staff and known gateways."""
        targets = auditor.targets(["staff1"], known_service_accounts=["gateway01"])
        names = [t.username for t in targets]
        assert names == ["robot1", "robot2"]

    def test_gateway_not_in_targets(self, auditor):
        targets = auditor.targets(["staff1"], known_service_accounts=["gateway01"])
        assert all(t.username != "gateway01" for t in targets)

    def test_no_staff_means_everyone_targeted(self, auditor):
        targets = auditor.targets([], known_service_accounts=[])
        assert len(targets) == len(auditor.ranked())


class TestAutomationDetection:
    def test_automation_summary(self, auditor):
        count, share = auditor.automation_summary()
        # robot1, robot2, gateway01 are >80% TTY-less.
        assert count == 3
        # "a minority of users were responsible for the majority of entries"
        assert share > 0.5

    def test_concentration(self, auditor):
        # The top 10% of 25 users is 2 accounts; they dominate.
        assert auditor.concentration(0.1) > 0.5

    def test_shared_account_detection(self, auditor):
        suspects = auditor.shared_account_suspects(min_ips=8, min_events=20)
        assert "shared" in suspects
        assert "robot1" not in suspects  # one origin only

    def test_histogram(self, auditor):
        histogram = auditor.event_histogram()
        assert histogram[1] == 20  # the 20 ordinary users, one entry each
