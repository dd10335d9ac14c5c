"""Rollout internals: new-account arrivals, device fallbacks, phases."""

from datetime import date

import pytest

from repro.policy import Decision, EnforcementMode, PolicyAction
from repro.sim import RolloutConfig, RolloutSimulation, rollout
from repro.sim.behavior import SPRING_SEMESTER


@pytest.fixture(scope="module")
def sim():
    simulation = RolloutSimulation(
        RolloutConfig(population_size=400, seed=17, real_login_fraction=0.0)
    )
    simulation.run()
    return simulation


class TestProvisioning:
    def test_service_accounts_exempted(self, sim):
        for user in sim.population.service_accounts():
            assert sim.system.acl.check(user.username, "8.8.8.8"), user.username

    def test_regular_accounts_not_exempted(self, sim):
        regular = next(
            u for u in sim.population.users
            if not u.is_service_account and u.username.startswith("in")
        )
        assert not sim.system.acl.check(regular.username, "8.8.8.8")

    def test_hard_batch_sized_for_population(self, sim):
        hard_pref = sum(
            1 for u in sim.population.users if u.device_preference == "hard"
        )
        # The batch was provisioned with slack; nobody was left fobless.
        assert sim.metrics.pairing_types.get("hard", 0) >= 1
        assert len(sim._hard_batch) >= hard_pref

    def test_all_accounts_exist_in_identity(self, sim):
        for user in sim.population.users:
            assert user.username in sim.center.identity


class TestNewAccounts:
    def test_new_users_arrive(self, sim):
        newcomers = [
            u for u in sim.population.users if u.username.startswith("newuser")
        ]
        assert newcomers

    def test_late_signups_pair_at_registration(self, sim):
        """From late August "any new users ... began receiving instruction
        on how to pair an MFA device" — late arrivals are all paired."""
        from repro.directory.identity import PairingStatus

        newcomers = [
            u for u in sim.population.users if u.username.startswith("newuser")
        ]
        paired = sum(
            1
            for u in newcomers
            if sim.center.identity.get(u.username).pairing_status
            is not PairingStatus.UNPAIRED
        )
        assert paired / len(newcomers) > 0.8

    def test_spring_semester_arrival_uptick(self, sim):
        m = sim.metrics
        december = m.mean_over(m.new_pairings, date(2016, 12, 5), date(2017, 1, 10))
        spring = m.mean_over(
            m.new_pairings, SPRING_SEMESTER, date(2017, 2, 7)
        )
        assert spring > december


class TestPhaseMachinery:
    def test_final_mode_full(self, sim):
        assert sim.system.mode == "full"

    def test_mass_emails_sent_at_milestones(self, sim):
        """Three campaign-wide broadcasts: announcement, phase 2, phase 3."""
        assert sim.mailer.sent_count >= 3 * len(sim.population.users) * 0.9
        # A specific user's inbox holds the three announcements.
        sample = sim.population.users[0].username
        email = sim.center.identity.get(sample).email
        subjects = [m.subject for m in sim.mailer.inbox(email)]
        assert any("coming" in s for s in subjects)
        assert any("countdown" in s for s in subjects)
        assert any("mandatory" in s for s in subjects)

    def test_training_pairings_spread(self, sim):
        """Training accounts pair at their workshops, not in one burst."""
        training_days = [
            state.workshop_day
            for state in sim._states.values()
            if state.workshop_day is not None
        ]
        if len(training_days) >= 3:
            assert len(set(training_days)) >= 3

    def test_unpaired_remainder_is_small_and_inactive(self, sim):
        """Whoever never paired is a user who effectively never logs in."""
        from repro.directory.identity import AccountClass, PairingStatus

        stragglers = [
            state.profile
            for state in sim._states.values()
            if state.pairing is None
            and not state.profile.is_service_account
            and state.profile.account_class is not AccountClass.TRAINING
        ]
        share = len(stragglers) / len(sim.population.users)
        assert share < 0.25
        if stragglers:
            mean_rate = sum(u.login_rate for u in stragglers) / len(stragglers)
            active_mean = sum(u.login_rate for u in sim.population.users) / len(
                sim.population.users
            )
            assert mean_rate < active_mean


class TestOneLadder:
    """The figures follow the deployment's ladder and ACL, not a copy."""

    @staticmethod
    def simulation(real_login_fraction=0.0):
        return RolloutSimulation(
            RolloutConfig(
                population_size=400, seed=7, real_login_fraction=real_login_fraction
            )
        )

    def test_flipped_ladder_moves_figure6(self):
        """A countdown with no deadline fails closed to ``full``: from phase 2
        on, unpaired users are refused rather than reminded."""
        flipped = self.simulation(real_login_fraction=0.02)
        set_mode = flipped.system.set_mode

        def countdown_without_deadline(mode, deadline=None):
            set_mode(mode, None if mode == "countdown" else deadline)

        flipped.system.set_mode = countdown_without_deadline
        plain = self.simulation(real_login_fraction=0.02)
        window = slice(
            plain.metrics.day_of(date(2016, 9, 6)), plain.metrics.day_of(date(2016, 10, 3)) + 1
        )
        flipped_pairings = flipped.run().new_pairings[window]
        assert (flipped_pairings != plain.run().new_pairings[window]).any()
        # The real stack made the same calls the figures were built from.
        assert flipped.metrics.real_logins_run > 0
        assert flipped.metrics.real_login_mismatches == 0

    def test_real_login_checks_the_prompt_kind(self):
        """A sampled login that succeeds still disagrees when it showed a
        token prompt where the decision called for a countdown notice."""
        sim = self.simulation(real_login_fraction=1.0)
        state = next(
            s for s in sim._states.values() if s.profile.device_preference == "soft"
        )
        sim._pair(state, 0)
        sim._maybe_real_login(state, sim._decide(state))
        assert (sim.metrics.real_logins_run, sim.metrics.real_login_mismatches) == (1, 0)
        notice = Decision(PolicyAction.NOTIFY, mode=EnforcementMode.COUNTDOWN)
        sim.clock.advance(60)  # a fresh code: the replay guard refuses the last one
        sim._maybe_real_login(state, notice)
        assert (sim.metrics.real_logins_run, sim.metrics.real_login_mismatches) == (2, 1)

    def test_service_account_without_acl_line_breaks_at_full(self, monkeypatch):
        """Exemption is the ACL's: a gateway left off its line is reminded
        like anyone unpaired, and its scripts break the day the ladder is
        full."""
        plain, stripped = self.simulation(), self.simulation()
        service = stripped.population.service_accounts()
        gateway = max(service, key=lambda u: u.automated_daily_connections)
        others = ",".join(u.username for u in service if u is not gateway)
        stripped.system.acl.set_text(f"+ : {others} : ALL : ALL\n")
        decisions = {}
        decide = stripped._decide

        def recording_decide(state):
            decision = decide(state)
            decisions.setdefault(state.profile.username, []).append(decision)
            return decision

        gateway_connections = {}
        draw = rollout.automated_connections

        def recording_draw(user, d, rng):
            conns = draw(user, d, rng)
            if user is gateway:
                gateway_connections[d] = conns
            return conns

        stripped._decide = recording_decide
        monkeypatch.setattr(rollout, "automated_connections", recording_draw)
        stripped.run()
        plain.run()
        phase3 = plain.metrics.day_of(plain.config.phase3)
        before, after = plain.metrics.external_nonmfa, stripped.metrics.external_nonmfa
        assert (before[:phase3] == after[:phase3]).all()
        assert gateway_connections[plain.config.phase3] > 0
        assert before[phase3] - after[phase3] == gateway_connections[plain.config.phase3]
        assert {d.mode for d in decisions[gateway.username]} == {
            EnforcementMode.PAIRED, EnforcementMode.COUNTDOWN, EnforcementMode.FULL
        }
        assert all(
            d.action is PolicyAction.EXEMPT
            for u in service
            if u is not gateway
            for d in decisions.get(u.username, ())
        )
