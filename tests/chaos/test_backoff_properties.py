"""Property-style seeded tests for the retransmit backoff schedule.

Not hypothesis-based (no new dependencies at runtime): a sweep of many
fixed seeds exercises the same properties — monotone growth, cap
respected, determinism — with exact reproducibility on failure.
"""

import pytest

from repro.common.resilience import BackoffPolicy, BackoffSchedule, stable_seed

SEEDS = list(range(60))


class TestScheduleProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_monotone_nondecreasing(self, seed):
        schedule = BackoffSchedule(BackoffPolicy(), seed)
        delays = schedule.delays(12)
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cap_respected(self, seed):
        policy = BackoffPolicy(cap=5.0)
        delays = BackoffSchedule(policy, seed).delays(20)
        assert all(d <= policy.cap for d in delays)
        # Growth is exponential, so the tail must have hit the cap exactly.
        assert delays[-1] == policy.cap

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_delay_at_least_base(self, seed):
        policy = BackoffPolicy()
        schedule = BackoffSchedule(policy, seed)
        assert schedule.delay(1) >= policy.base
        assert schedule.delay(0) == 0.0  # the first attempt waits nothing

    def test_identical_seeds_identical_schedules(self):
        policy = BackoffPolicy()
        for seed in SEEDS:
            a = BackoffSchedule(policy, seed).delays(10)
            b = BackoffSchedule(policy, seed).delays(10)
            assert a == b

    def test_distinct_seeds_desynchronize(self):
        policy = BackoffPolicy()
        schedules = {tuple(BackoffSchedule(policy, s).delays(6)) for s in SEEDS}
        # Jitter must spread the fleet: near-total distinctness expected.
        assert len(schedules) > len(SEEDS) * 0.9

    def test_zero_jitter_is_pure_exponential(self):
        policy = BackoffPolicy(base=0.5, multiplier=2.0, cap=64.0, jitter=0.0)
        delays = BackoffSchedule(policy, 7).delays(5)
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0]


class TestPolicyValidation:
    def test_jitter_bounded_by_multiplier(self):
        # jitter > multiplier - 1 could break monotonicity; rejected.
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=2.0, jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=-0.1)

    def test_bad_curve_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.9)
        with pytest.raises(ValueError):
            BackoffPolicy(cap=0.0)


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
