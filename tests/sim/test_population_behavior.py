"""Population generation and daily-behaviour models."""

import hashlib
import random
from datetime import date

import pytest

from repro.directory.identity import AccountClass
from repro.sim import behavior, population as population_table, tickets
from repro.sim.behavior import (
    AdaptationModel,
    AdoptionModel,
    activity_factor,
    automated_connections,
    interactive_sessions,
    logs_in_today,
)
from repro.sim.population import Population, UserProfile


@pytest.fixture(scope="module")
def population():
    return Population(2000, seed=1)


class TestPopulation:
    def test_size(self, population):
        assert len(population) == 2000

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Population(10)

    def test_deterministic(self):
        a = Population(200, seed=9)
        b = Population(200, seed=9)
        assert [u.username for u in a.users] == [u.username for u in b.users]
        assert [u.login_rate for u in a.users] == [u.login_rate for u in b.users]

    def test_class_mix_plausible(self, population):
        by_class = population.by_class()
        total = len(population)
        assert len(by_class[AccountClass.INDIVIDUAL]) / total > 0.9
        assert 0.002 <= len(by_class[AccountClass.STAFF]) / total <= 0.03
        assert AccountClass.TRAINING in by_class

    def test_training_uses_static(self, population):
        for user in population.by_class()[AccountClass.TRAINING]:
            assert user.device_preference == "training"

    def test_service_accounts_automated(self, population):
        for user in population.service_accounts():
            assert user.automated
            assert user.automated_daily_connections >= 50
            assert user.device_preference == "none"

    def test_device_preferences_match_table1(self, population):
        """Non-training preferences should track Table 1's proportions."""
        prefs = [
            u.device_preference
            for u in population.users
            if u.device_preference in ("soft", "sms", "hard")
        ]
        soft = prefs.count("soft") / len(prefs)
        sms = prefs.count("sms") / len(prefs)
        hard = prefs.count("hard") / len(prefs)
        assert 0.50 <= soft <= 0.65
        assert 0.35 <= sms <= 0.48
        assert 0.002 <= hard <= 0.04

    def test_minority_automates(self, population):
        individuals = population.by_class()[AccountClass.INDIVIDUAL]
        automated = [u for u in individuals if u.automated]
        assert 0.01 <= len(automated) / len(individuals) <= 0.08


class TestCalendar:
    def test_weekday_full_activity(self):
        assert activity_factor(date(2016, 9, 14)) == 1.0  # a Wednesday

    def test_weekend_reduced(self):
        assert activity_factor(date(2016, 9, 17)) < 1.0  # a Saturday

    def test_holiday_reduced(self):
        assert activity_factor(date(2016, 12, 25)) < activity_factor(date(2016, 12, 1))

    def test_holiday_weekend_compounds(self):
        assert activity_factor(date(2016, 12, 24)) < activity_factor(date(2016, 12, 21))


def make_user(**overrides):
    defaults = dict(
        username="u", account_class=AccountClass.INDIVIDUAL,
        device_preference="soft", login_rate=0.5, sessions_per_active_day=3.0,
        external_fraction=0.8, automated=False, automated_daily_connections=0.0,
        eagerness=0.5,
    )
    defaults.update(overrides)
    return UserProfile(**defaults)


class TestBehavior:
    def test_login_rate_respected(self):
        rng = random.Random(1)
        user = make_user(login_rate=0.5)
        d = date(2016, 9, 14)
        active = sum(1 for _ in range(2000) if logs_in_today(user, d, rng))
        assert 900 <= active <= 1100

    def test_interactive_sessions_at_least_one(self):
        rng = random.Random(2)
        user = make_user(sessions_per_active_day=2.0)
        for _ in range(100):
            assert interactive_sessions(user, rng) >= 1

    def test_automated_connections_zero_for_manual(self):
        user = make_user(automated=False)
        assert automated_connections(user, date(2016, 9, 14), random.Random(3)) == 0

    def test_automated_volume_near_mean(self):
        rng = random.Random(4)
        user = make_user(automated=True, automated_daily_connections=100.0)
        total = sum(
            automated_connections(user, date(2016, 9, 14), rng) for _ in range(200)
        )
        assert 18000 <= total <= 22000


class TestAdoptionModel:
    @pytest.fixture
    def model(self):
        return AdoptionModel(announcement_day=9)

    def test_no_hazard_before_announcement(self, model):
        assert model.voluntary_hazard(make_user(), 5) == 0.0

    def test_hazard_peaks_at_announcement(self, model):
        user = make_user(eagerness=1.0)
        assert model.voluntary_hazard(user, 9) > model.voluntary_hazard(user, 30)

    def test_hazard_scales_with_eagerness(self, model):
        eager = make_user(eagerness=1.0)
        reluctant = make_user(eagerness=0.1)
        assert model.voluntary_hazard(eager, 10) > model.voluntary_hazard(reluctant, 10)

    def test_countdown_first_encounter_more_persuasive(self, model):
        rng = random.Random(5)
        user = make_user(eagerness=0.5)
        first = sum(
            1 for _ in range(1000) if model.pairs_after_countdown(user, 1, rng)
        )
        repeat = sum(
            1 for _ in range(1000) if model.pairs_after_countdown(user, 3, rng)
        )
        assert first > repeat

    def test_phase2_announcement_response(self, model):
        rng = random.Random(6)
        eager = make_user(eagerness=1.0)
        rate = sum(
            1 for _ in range(1000)
            if model.pairs_after_phase2_announcement(eager, rng)
        )
        assert 120 <= rate <= 280  # ~ phase2_announce_prob


class TestAdaptationModel:
    def test_adaptation_day_bounded(self):
        model = AdaptationModel(outreach_day=4, phase2_day=36, phase3_day=64)
        rng = random.Random(7)
        user = make_user(automated=True)
        for _ in range(200):
            day = model.sample_adaptation_day(user, rng)
            assert 4 <= day <= 64 + 14

    def test_split_sums_to_one(self):
        model = AdaptationModel(outreach_day=4, phase2_day=36, phase3_day=64)
        rng = random.Random(8)
        for _ in range(100):
            internal, mux, variance = model.adapted_split(rng)
            assert internal + mux + variance == pytest.approx(1.0)
            assert internal > 0 and mux > 0 and variance >= 0


class TestOneBehaviourTable:
    """The model's numbers live in the upper-case constants of
    ``sim.behavior``, ``sim.population`` and ``sim.tickets``; the figures
    are re-measured, never re-tuned."""

    def test_values_did_not_move(self):
        table = sorted(
            f"{module.__name__}.{name}={value!r}"
            for module in (behavior, population_table, tickets)
            for name, value in vars(module).items()
            if name.isupper()
        )
        assert len(table) == 38
        # The table at the commit before the figures moved to 10,000 accounts.
        assert hashlib.sha256("\n".join(table).encode()).hexdigest() == (
            "992d8c496a059654b7796582be5611cd85f66c374a1c0f38d680b72f0c7745ab"
        ), "\n".join(table)
