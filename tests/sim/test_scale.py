"""The vectorised scaled rollout: determinism, resume, figure shapes."""

import ast
import inspect

import pytest

from repro.sim import behavior, population, scale
from repro.sim.scale import ScaleConfig, ScaledRollout, simulate


def run(users=20_000, days=14, seed=99):
    return simulate(users, days, seed)


class TestConfig:
    def test_phase_days_are_ordered(self):
        cfg = ScaleConfig(users=1000, days=14)
        assert 0 <= cfg.announcement_day <= cfg.phase2_day <= cfg.phase3_day <= 14

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            ScaleConfig(users=10)

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            ScaleConfig(users=1000, days=0)

    def test_rejects_unordered_fractions(self):
        with pytest.raises(ValueError):
            ScaleConfig(users=1000, phase2_frac=0.9, phase3_frac=0.5)


class TestDeterminism:
    def test_same_seed_byte_identical_digest(self):
        assert run().digest() == run().digest()

    def test_different_seed_differs(self):
        assert run(seed=99).digest() != run(seed=100).digest()

    def test_resumed_run_matches_continuous(self):
        continuous = run(users=1000)
        resumed = ScaledRollout(ScaleConfig(users=1000, days=14, seed=99))
        resumed.run(until_day=5)
        resumed.run(until_day=10)
        resumed.run()
        assert resumed.digest() == continuous.digest()
        assert (
            resumed.metrics.unique_mfa_users == continuous.metrics.unique_mfa_users
        ).all()

    def test_population_size_changes_digest(self):
        assert run(users=1000).digest() != run(users=2000).digest()


class TestShapes:
    def test_fig3_adoption_ramps_across_phases(self):
        rollout = run()
        m, cfg = rollout.metrics, rollout.config
        pre = m.unique_mfa_users[: cfg.phase2_day].mean()
        post = m.unique_mfa_users[cfg.phase3_day :].mean()
        assert post > 2 * pre  # mandatory MFA multiplies daily MFA users

    def test_fig4_nonmfa_traffic_declines(self):
        rollout = run()
        m, cfg = rollout.metrics, rollout.config
        early = m.external_nonmfa[: cfg.announcement_day + 2].mean()
        late = m.external_nonmfa[cfg.phase3_day :].mean()
        assert late < early  # exempt/automated remainder, not the old bulk
        assert late > 0  # but never zero: exempt service traffic persists

    def test_fig6_pairing_spikes_at_phase_boundaries(self):
        rollout = run()
        m, cfg = rollout.metrics, rollout.config
        top = {
            int(day)
            for day, _ in [
                (m.new_pairings.argsort()[::-1][k], None) for k in range(3)
            ]
        }
        # The countdown reaction (day after phase 2) and the deadline are
        # the rollout's biggest pairing days, as in the paper's Figure 6.
        assert cfg.phase2_day + 1 in top or cfg.phase3_day in top

    def test_most_eligible_users_end_paired(self):
        rollout = run()
        assert rollout.paired_fraction() > 0.5

    def test_service_accounts_never_pair(self):
        rollout = run()
        assert not (rollout.paired & rollout.is_service).any()

    def test_tickets_follow_the_rollout(self):
        m = run().metrics
        assert m.mfa_tickets.sum() > 0
        assert m.other_tickets.sum() > m.mfa_tickets.sum()


class TestEventLog:
    def test_one_day_event_per_day_plus_phases(self):
        rollout = run(users=1000)
        kinds = [event["kind"] for event in rollout.log.events]
        assert kinds.count("day") == rollout.config.days
        assert kinds.count("phase") == 3

    def test_summary_carries_digest_and_totals(self):
        rollout = run(users=1000)
        summary = rollout.summary()
        assert summary["digest"] == rollout.digest()
        assert summary["users"] == 1000
        assert summary["new_pairings_total"] > 0


def _numbers(node):
    """Every numeric literal under ``node`` (``-1.8`` parses as ``-(1.8)``)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) in (int, float):
            found.add(sub.value)
        if isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.USub):
            if isinstance(sub.operand, ast.Constant):
                found.add(-sub.operand.value)
    return found


def _table(module):
    """The numbers in a module's upper-case constants."""
    found = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign) and all(
            name.id.isupper()
            for target in node.targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name)
        ):
            found |= _numbers(node.value)
    return found


class TestOneBehaviourTable:
    """Both rollout simulators read one table: ``sim.behavior`` holds the
    adoption numbers, ``sim.population`` the class mix and trait
    distributions, and the vectorised loop imports them."""

    #: Too ordinary to mean anything on their own (a zero, a unit, a pair).
    EVERYDAY = {0, 1, 2}

    def test_scaled_loop_spells_no_number_of_the_model(self):
        shared = (_table(behavior) | _table(population)) - self.EVERYDAY
        assert {0.055, 0.20, 0.08, 0.70, 0.35, 0.010, -1.8, 2.5, 220.0} <= shared
        tree = ast.parse(inspect.getsource(scale))
        (loop,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "ScaledRollout"
        ]
        assert _numbers(loop) & shared == set()

    def test_values_did_not_move(self):
        # simulate(2000, 14, 99) at the commit before the table was shared.
        assert simulate(2000, 14, 99).digest() == (
            "381d843fdc0a977b7f174b6b55058c4f34e13a6ec35000669c79c8e3905c8fb0"
        )
