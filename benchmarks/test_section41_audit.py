"""AUDIT — the Section 4.1 information-gathering campaign.

Reproduces the pre-MFA targeting pipeline on simulated entry-audit logs
and prints what the staff saw: the activity ranking, the staff threshold,
the outreach list, and the minority-automates-majority skew.
"""

import pytest

from repro.sim.population import Population
from repro.analysis.preaudit import run_information_gathering


@pytest.fixture(scope="module")
def campaign():
    population = Population(800, seed=41)
    return run_information_gathering(population, days=45, seed=42)


class TestSection41:
    def test_print_campaign_summary(self, campaign):
        print("\n=== Section 4.1: information-gathering campaign ===")
        print(f"    entry-audit events collected: {campaign.total_entries:,}")
        print(f"    staff activity threshold:     {campaign.staff_threshold} events")
        print(f"    outreach targets:             {len(campaign.targets)} accounts")
        for target in campaign.targets[:5]:
            print(
                f"      {target.username:<14} {target.total_events:>7,} events  "
                f"{target.notty_fraction:>5.0%} TTY-less"
            )
        print(f"    automated accounts: {campaign.automated_user_count} "
              f"({campaign.automated_event_share:.0%} of all events)")
        print(f"    top decile of users -> {campaign.top_decile_share:.0%} of events")

    def test_minority_majority(self, campaign):
        """"a minority of users were responsible for the majority of
        entries"."""
        assert campaign.top_decile_share > 0.5

    def test_targets_mostly_ttyless(self, campaign):
        """"The far majority of these log in events were not invoked with
        a TTY"."""
        assert campaign.targets
        ttyless = [t for t in campaign.targets if t.notty_fraction > 0.5]
        assert len(ttyless) >= 0.8 * len(campaign.targets)

    def test_targets_on_the_order_of_hundreds_scaled(self, campaign):
        """Paper: "on the order of hundreds" out of >10k accounts; our 800
        accounts should yield the scaled handful."""
        assert 1 <= len(campaign.targets) <= 80

    def test_bench_audit_pipeline(self, benchmark, campaign):
        """Cost of re-running the ranking/targeting over collected logs."""
        from repro.analysis.loginaudit import LoginAuditor

        entries = campaign.authlog.entries()

        def analyze():
            auditor = LoginAuditor(entries)
            return auditor.ranked(), auditor.concentration(0.1)

        ranked, concentration = benchmark(analyze)
        assert concentration > 0.4
