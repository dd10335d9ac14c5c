"""The Section 4.1 information-gathering campaign on simulated logs."""

import pytest

from repro.sim.population import Population
from repro.analysis.preaudit import run_information_gathering


@pytest.fixture(scope="module")
def result():
    population = Population(400, seed=5)
    return run_information_gathering(population, days=30, seed=6)


class TestInformationGathering:
    def test_log_volume_plausible(self, result):
        # Hundreds of users over a month produce a serious log.
        assert result.total_entries > 5_000

    def test_staff_threshold_positive(self, result):
        assert result.staff_threshold > 0

    def test_targets_above_threshold(self, result):
        for target in result.targets:
            assert target.total_events > result.staff_threshold

    def test_targets_exclude_service_accounts(self, result):
        service = set(result.service_accounts)
        assert all(t.username not in service for t in result.targets)

    def test_targets_are_automated_accounts(self, result):
        """The outreach list should be dominated by TTY-less automation —
        "The far majority of these log in events were not invoked with a
        TTY"."""
        if not result.targets:
            pytest.skip("this seed produced no above-threshold users")
        notty = [t for t in result.targets if t.notty_fraction > 0.5]
        assert len(notty) >= len(result.targets) * 0.8

    def test_minority_majority_property(self, result):
        """"a minority of users were responsible for the majority of
        entries" — the top decile carries most of the volume."""
        assert result.top_decile_share > 0.5

    def test_automated_share(self, result):
        assert result.automated_event_share > 0.5
        # But automated accounts are a small minority of the population.
        assert result.automated_user_count < 0.15 * len(result.auditor.ranked())

    def test_deterministic(self):
        population = Population(200, seed=5)
        a = run_information_gathering(population, days=10, seed=6)
        b = run_information_gathering(Population(200, seed=5), days=10, seed=6)
        assert a.total_entries == b.total_entries
        assert [t.username for t in a.targets] == [t.username for t in b.targets]
