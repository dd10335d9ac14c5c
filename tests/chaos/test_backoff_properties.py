"""Property-style seeded tests for the retransmit backoff schedule.

Not hypothesis-based (no new dependencies at runtime): a sweep of many
fixed seeds exercises the same properties — monotone growth, cap
respected, determinism — with exact reproducibility on failure.
"""

import pytest

from repro.common import resilience
from repro.common.resilience import BackoffSchedule, stable_seed

SEEDS = list(range(60))


class TestScheduleProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_monotone_nondecreasing(self, seed):
        schedule = BackoffSchedule(seed)
        delays = schedule.delays(12)
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cap_respected(self, seed):
        delays = BackoffSchedule(seed).delays(20)
        assert all(d <= resilience.BACKOFF_CAP for d in delays)
        # Growth is exponential, so the tail must have hit the cap exactly.
        assert delays[-1] == resilience.BACKOFF_CAP

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_delay_at_least_base(self, seed):
        schedule = BackoffSchedule(seed)
        assert schedule.delay(1) >= resilience.BACKOFF_BASE
        assert schedule.delay(0) == 0.0  # the first attempt waits nothing

    def test_identical_seeds_identical_schedules(self):
        for seed in SEEDS:
            a = BackoffSchedule(seed).delays(10)
            b = BackoffSchedule(seed).delays(10)
            assert a == b

    def test_distinct_seeds_desynchronize(self):
        schedules = {tuple(BackoffSchedule(s).delays(6)) for s in SEEDS}
        # Jitter must spread the fleet: near-total distinctness expected.
        assert len(schedules) > len(SEEDS) * 0.9

    def test_zero_jitter_is_pure_exponential(self, monkeypatch):
        monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.5)
        monkeypatch.setattr(resilience, "BACKOFF_CAP", 64.0)
        monkeypatch.setattr(resilience, "BACKOFF_JITTER", 0.0)
        delays = BackoffSchedule(7).delays(5)
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0]


class TestPolicyValidation:
    """The curve is module constants; what the old constructor checks
    rejected, these pin."""

    def test_jitter_bounded_by_multiplier(self):
        # jitter > multiplier - 1 would let a lucky early draw overtake an
        # unlucky later one, breaking the monotone-schedule guarantee.
        assert 0.0 <= resilience.BACKOFF_JITTER <= resilience.BACKOFF_MULTIPLIER - 1.0

    def test_bad_curve_rejected(self):
        assert 0.0 < resilience.BACKOFF_BASE <= resilience.BACKOFF_CAP


class TestStableSeed:
    def test_independent_of_hash_randomization(self):
        # CRC-based, so the same inputs map to the same seed in every
        # interpreter run (unlike hash()).
        assert stable_seed("10.3.1.5", "10.0.0.10:1812") == stable_seed(
            "10.3.1.5", "10.0.0.10:1812"
        )

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {stable_seed("client", f"10.0.0.{i}:1812") for i in range(32)}
        assert len(seeds) == 32
