"""The phased MFA rollout scenario (Section 5, Figures 3-6, Table 1).

Timeline reproduced::

    2016-08-01   simulation start; PAM token module already in "paired" mode
    2016-08-10   first public announcement (mass email) — phase 1
    2016-09-06   switch to "countdown" mode — phase 2
    2016-10-04   switch to "full" mode — phase 3 (MFA mandatory)
    2016-12-17.. winter holiday dip
    2017-01-17   spring semester begins (new-user pairing uptick)
    2017-03-31   simulation end

State-changing operations run against the real infrastructure: accounts are
created in the identity back end, pairings enroll real tokens in the OTP
server, gateway/community exemptions are one real ACL line, and the
enforcement-mode switches call :meth:`HPCSystem.set_mode`.  The behaviour
models say when people pair, log in and run scripts; what each user-day's
external traffic meets is ``system.policy``'s own :class:`Decision`.  A
sampled fraction of interactive logins runs the full SSH → PAM → RADIUS →
OTP path and is cross-checked against that decision, outcome and prompt
kind (mismatches are counted and should be zero).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date
from typing import Dict, Optional

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import AccountClass
from repro.pam.modules.token import PROMPT
from repro.policy import AuthRequest, Decision, EnforcementMode, PolicyAction
from repro.sim.behavior import (
    BLOCKED_PAIRS_SAME_DAY_PROB,
    BROKEN_AUTOMATION_ADAPTS_DAYS,
    SPRING_SEMESTER,
    AdaptationModel,
    AdoptionModel,
    activity_factor,
    automated_connections,
    day_date,
    interactive_sessions,
    logs_in_today,
)
from repro.sim.metrics import DailyMetrics
from repro.sim.population import DEVICE_WEIGHTS, Population, UserProfile
from repro.portal.mailer import Mailer
from repro.sim.tickets import TicketModel
from repro.simcore import EventScheduler
from repro.ssh.client import SSHClient


#: The simulated window, and when staff began contacting targeted users.
START = date(2016, 8, 1)
END = date(2017, 3, 31)
OUTREACH = date(2016, 8, 5)
#: New accounts per day per 1000 existing (pairing at signup from late
#: August; doubled for three weeks at the spring semester).
NEW_ACCOUNTS_PER_1K = 0.35


@dataclass
class RolloutConfig:
    """The scenario knobs, defaulted to the paper's timeline."""

    population_size: int = 10_000
    seed: int = 20160810
    announcement: date = date(2016, 8, 10)
    phase2: date = date(2016, 9, 6)
    phase3: date = date(2016, 10, 4)
    #: Fraction of interactive external logins executed through the real
    #: SSH/PAM/RADIUS/OTP path as a consistency check.
    real_login_fraction: float = 0.003

    @property
    def days(self) -> int:
        return (END - START).days + 1


@dataclass
class _UserState:
    """Mutable per-user rollout state."""

    profile: UserProfile
    pairing: Optional[str] = None  # the type enrolled via center.pair_*
    pair_scheduled_day: Optional[int] = None
    countdown_encounters: int = 0
    device: Optional[TOTPGenerator] = None  # soft/hard real generators
    phone: Optional[str] = None  # sms pairings
    static_code: Optional[str] = None  # training pairings
    workshop_day: Optional[int] = None  # training accounts pair here
    adaptation_day: Optional[int] = None
    adapted_split: Optional[tuple] = None


class RolloutSimulation:
    """Runs the scenario and fills a :class:`DailyMetrics`."""

    def __init__(self, config: Optional[RolloutConfig] = None) -> None:
        self.config = config or RolloutConfig()
        cfg = self.config
        self.rng = random.Random(cfg.seed)
        self.clock = VirtualClock.at(f"{START.isoformat()}T00:00:00")
        self.center = MFACenter(clock=self.clock, rng=random.Random(cfg.seed + 1))
        self.system = self.center.add_system("stampede", login_nodes=2, mode="paired")
        self.population = Population(cfg.population_size, seed=cfg.seed + 2)
        self.metrics = DailyMetrics(START, cfg.days)
        self.tickets = TicketModel(cfg.population_size)
        self.adoption = AdoptionModel(announcement_day=(cfg.announcement - START).days)
        self.adaptation = AdaptationModel(
            outreach_day=(OUTREACH - START).days,
            phase2_day=(cfg.phase2 - START).days,
            phase3_day=(cfg.phase3 - START).days,
        )
        self._phone_counter = 5_550_000
        self._next_new_user = 0
        self._states: Dict[str, _UserState] = {}
        # Mass-communication channel: "communications to the public were
        # sent out via portal user news and mass email" (Section 4.2).
        self.mailer = Mailer(self.clock)
        # Enough fobs for every hard-preference user plus slack.
        hard_needed = sum(
            1 for u in self.population.users if u.device_preference == "hard"
        )
        self._hard_batch = self.center.receive_hard_batch(max(10, hard_needed * 3))
        self._provision_accounts()
        self._ran = False

    # -- setup -------------------------------------------------------------------

    def _provision_accounts(self) -> None:
        cfg = self.config
        for user in self.population.users:
            self.center.create_user(
                user.username,
                password=f"pw-{user.username}",
                account_class=user.account_class,
            )
            state = _UserState(profile=user)
            if user.account_class is AccountClass.TRAINING:
                # Each training account pairs before "its" workshop.
                state.workshop_day = self.rng.randrange(5, cfg.days - 10)
            if user.automated and not user.is_service_account:
                state.adaptation_day = self.adaptation.sample_adaptation_day(
                    user, self.rng
                )
                state.adapted_split = self.adaptation.adapted_split(self.rng)
            self._states[user.username] = state
        # Real ACL exemption, as staff configured for gateways and community
        # accounts: one line naming them all.
        service = ",".join(u.username for u in self.population.service_accounts())
        if service:
            self.system.add_exemption(accounts=service)

    def _mass_email(self, subject: str, body: str) -> int:
        addresses = [
            self.center.identity.get(u).email for u in self.center.identity.usernames()
        ]
        return self.mailer.broadcast(addresses, subject, body)

    def _new_phone(self) -> str:
        self._phone_counter += 1
        return f"512{self._phone_counter:07d}"

    # -- pairing (real enrollments) -------------------------------------------------

    def _pair(self, state: _UserState, day: int) -> None:
        if state.pairing is not None:
            return
        username = state.profile.username
        preference = state.profile.device_preference
        if preference == "training":
            state.static_code = self.center.pair_training(username)
        elif preference == "sms":
            state.phone = self._new_phone()
            self.center.pair_sms(username, state.phone)
        elif preference == "hard":
            unshipped = self._hard_batch.unshipped()
            serial = unshipped[0]
            self._hard_batch.ship(serial, "United States")
            self.center.pair_hard(username, serial)
            state.device = TOTPGenerator(
                secret=self._hard_batch.secret_for(serial), clock=self.clock
            )
        else:  # soft
            _, secret = self.center.pair_soft(username)
            state.device = TOTPGenerator(secret=secret, clock=self.clock)
        state.pairing = preference
        state.pair_scheduled_day = None
        self.metrics.new_pairings[day] += 1
        self.metrics.pairing_types[preference] = (
            self.metrics.pairing_types.get(preference, 0) + 1
        )

    # -- new account arrivals ----------------------------------------------------------

    def _arrivals_today(self, d: date) -> int:
        rate = NEW_ACCOUNTS_PER_1K * len(self.population.users) / 1000.0
        if SPRING_SEMESTER <= d <= date(2017, 2, 7):
            rate *= 2.2  # spring-semester signup wave
        rate *= activity_factor(d)
        count = 0
        acc = rate
        while acc >= 1.0:
            count += 1
            acc -= 1.0
        if self.rng.random() < acc:
            count += 1
        return count

    def _create_new_user(self, day: int) -> None:
        """A fresh signup; from late August they pair during registration."""
        self._next_new_user += 1
        username = f"newuser{self._next_new_user:05d}"
        devices, weights = zip(*DEVICE_WEIGHTS)
        profile = UserProfile(
            username=username,
            account_class=AccountClass.INDIVIDUAL,
            device_preference=self.rng.choices(devices, weights=weights)[0],
            login_rate=min(0.9, self.rng.lognormvariate(-1.9, 0.7)),
            sessions_per_active_day=max(1.0, self.rng.gauss(2.0, 0.8)),
            external_fraction=0.8,
            automated=False,
            automated_daily_connections=0.0,
            eagerness=1.0,
        )
        self.population.users.append(profile)
        self.center.create_user(
            username, password=f"pw-{username}", account_class=profile.account_class
        )
        state = _UserState(profile=profile)
        self._states[username] = state
        instructed_from = (date(2016, 8, 22) - START).days
        if day >= instructed_from:
            if profile.device_preference == "hard" and not self._hard_batch.unshipped():
                profile.device_preference = "soft"
            self._pair(state, day)

    # -- the daily step -----------------------------------------------------------------

    def run(self) -> DailyMetrics:
        """Drive the scenario through the discrete-event engine: one daily
        tick per simulated day, with the clock advanced by the queue."""
        if self._ran:
            return self.metrics
        queue = EventScheduler(clock=self.clock)
        for day in range(self.config.days):
            queue.schedule(day * 86400.0, self._day_tick, day)
        queue.run_until(self.clock.now() + self.config.days * 86400.0)
        self._ran = True
        return self.metrics

    def _decide(self, state: _UserState) -> Decision:
        """The deployment's decision on this user's external logins today
        (from one fixed address: a drawn one would shift every later draw)."""
        return self.system.policy.evaluate(
            AuthRequest(state.profile.username, "198.51.100.1", pairing=state.pairing)
        )

    def _day_tick(self, day: int) -> None:
        cfg = self.config
        phase2_day = (cfg.phase2 - START).days
        phase3_day = (cfg.phase3 - START).days
        announcement_day = self.adoption.announcement_day
        d = day_date(START, day)
        if day == announcement_day:
            self._mass_email(
                "Multi-factor authentication is coming",
                f"MFA becomes mandatory on {cfg.phase3.isoformat()}. "
                "Pair a device in the user portal.",
            )
        if day == phase2_day:
            self.system.set_mode("countdown", deadline=cfg.phase3.isoformat())
            self._mass_email(
                "MFA countdown has begun",
                "You will now see a daily reminder at login until you "
                "pair a device.",
            )
            # The phase-2 announcement lands; part of the unpaired pool
            # reacts by pairing the following day (the Sep 7 peak).
            for state in self._states.values():
                if (
                    state.pairing is None
                    and state.pair_scheduled_day is None
                    and not state.profile.is_service_account
                    and state.profile.device_preference != "training"
                    and self.adoption.pairs_after_phase2_announcement(
                        state.profile, self.rng
                    )
                ):
                    state.pair_scheduled_day = day + 1
        if day == phase3_day:
            self.system.set_mode("full")
            self._mass_email(
                "MFA is now mandatory",
                "All SSH logins now require a token code.",
            )
        for _ in range(self._arrivals_today(d)):
            self._create_new_user(day)
        countdown_encounters_today = 0
        deadline_lockouts_today = 0
        for state in list(self._states.values()):
            user = state.profile
            if user.is_service_account:
                conns = automated_connections(user, d, self.rng)
                if conns and self._decide(state).mode is EnforcementMode.FULL:
                    deadline_lockouts_today += 1  # no exemption: scripts break
                else:
                    self.metrics.external_nonmfa[day] += conns
                continue
            # Scheduled pairing (decided yesterday at a countdown prompt).
            if state.pair_scheduled_day == day:
                self._pair(state, day)
            # Training workshops pair on their session day.
            if (
                state.workshop_day == day
                and state.pairing is None
                and user.account_class is AccountClass.TRAINING
            ):
                self._pair(state, day)
            # Voluntary opt-in during phases 1-2.
            if (
                state.pairing is None
                and user.device_preference != "training"
                and day < phase3_day
                and self.rng.random() < self.adoption.voluntary_hazard(user, day)
            ):
                self._pair(state, day)
            # Mandatory-deadline day: holdouts pair proactively.
            if (
                state.pairing is None
                and day == phase3_day
                and user.device_preference != "training"
                and self.adoption.pairs_at_deadline(user, self.rng)
            ):
                self._pair(state, day)

            decision = None  # asked for at the first external login or script
            active = logs_in_today(user, d, self.rng)
            if active:
                sessions = interactive_sessions(user, self.rng)
                external = sum(
                    1
                    for _ in range(sessions)
                    if self.rng.random() < user.external_fraction
                )
                internal = sessions - external
                self.metrics.internal[day] += internal
                if external:
                    decision = self._decide(state)
                    if decision.pairing is not None:
                        # Challenged with a paired device: an MFA login.
                        self.metrics.external_mfa[day] += external
                        self.metrics.unique_mfa_users[day] += 1
                        self._maybe_real_login(state, decision)
                    elif not decision.allows_entry:
                        # Challenged with nothing to answer (full mode):
                        # denied; pair same day (portal) with high
                        # probability, else a lockout ticket.
                        deadline_lockouts_today += 1
                        self._maybe_real_login(state, decision)
                        if user.device_preference != "training" and (
                            self.rng.random() < BLOCKED_PAIRS_SAME_DAY_PROB
                        ):
                            self._pair(state, day)
                            # Their retry is a new login, challenged with
                            # the new device: it succeeds with MFA.
                            decision = self._decide(state)
                            self.metrics.external_mfa[day] += external
                            self.metrics.unique_mfa_users[day] += 1
                    else:
                        self.metrics.external_nonmfa[day] += external
                        self._maybe_real_login(state, decision)
                        if decision.action is PolicyAction.NOTIFY:
                            # Countdown message seen; decide tomorrow.
                            state.countdown_encounters += 1
                            countdown_encounters_today += 1
                            if (
                                state.pair_scheduled_day is None
                                and user.device_preference != "training"
                                and self.adoption.pairs_after_countdown(
                                    user, state.countdown_encounters, self.rng
                                )
                            ):
                                state.pair_scheduled_day = day + 1
            # Automated individual traffic.
            if user.automated:
                conns = automated_connections(user, d, self.rng)
                if conns:
                    decision = decision or self._decide(state)
                    if state.adaptation_day is not None and day >= state.adaptation_day:
                        internal_share, mux_share, variance_share = state.adapted_split
                        self.metrics.internal[day] += int(conns * internal_share)
                        # Multiplexing: one MFA-authenticated master per day
                        # carries what used to be dozens of connections.
                        if decision.pairing is not None:
                            self.metrics.external_mfa[day] += max(
                                1, int(conns * mux_share * 0.05)
                            )
                        self.metrics.external_nonmfa[day] += int(conns * variance_share)
                    elif decision.mode is EnforcementMode.FULL:
                        # Unadapted, unexempted automation breaks once the
                        # ladder is full; they adapt within days.
                        adapts_by = day + BROKEN_AUTOMATION_ADAPTS_DAYS
                        state.adaptation_day = min(state.adaptation_day or adapts_by, adapts_by)
                        deadline_lockouts_today += 1
                    else:
                        self.metrics.external_nonmfa[day] += conns

        self.metrics.mfa_tickets[day] = self.tickets.mfa_tickets(
            d,
            int(self.metrics.new_pairings[day]),
            countdown_encounters_today,
            deadline_lockouts_today,
            self.rng,
        )
        self.metrics.other_tickets[day] = self.tickets.other_tickets(d, self.rng)

    # -- the real-path consistency check ----------------------------------------------

    def _maybe_real_login(self, state: _UserState, decision: Decision) -> None:
        if self.rng.random() >= self.config.real_login_fraction:
            return
        user = state.profile
        client = SSHClient(source_ip=f"198.51.{self.rng.randrange(256)}.{self.rng.randrange(1, 255)}")
        node = self.system.login_node(self.rng.randrange(len(self.system.daemons)))
        token = None
        extra = {}
        if state.device is not None:
            token = state.device.current_code
        elif state.static_code is not None:
            token = state.static_code
        elif state.phone is not None:
            phone = state.phone
            gateway = self.center.sms_gateway
            clock = self.clock
            seen = {"last": gateway.latest(phone)}

            def read_sms() -> str:
                # Wait for the next delivery, riding out carrier stalls the
                # way a real user does.  If the stalled code arrives expired
                # the PAM stack's retry triggers a fresh SMS and this reader
                # waits for that newer message instead.
                deadline = clock.now() + 2000
                while clock.now() < deadline:
                    clock.advance(30)
                    message = gateway.latest(phone)
                    if message is not None and message is not seen["last"]:
                        seen["last"] = message
                        return message.body.split()[-1]
                return "000000"

            extra["token code"] = read_sms
        result, conversation = client.connect(
            node,
            user.username,
            password=f"pw-{user.username}",
            token=token,
            extra_answers=extra,
        )
        self.metrics.real_logins_run += 1
        # The conversation shows what the decision calls for: the token
        # prompt for a challenge, the acknowledge prompt for a countdown
        # notice, neither for anything else.
        shown = conversation.prompts_seen
        challenged = PROMPT in shown
        notified = any("acknowledge" in prompt for prompt in shown)
        passes = decision.pairing is not None or decision.allows_entry
        if (
            bool(result.success) != passes
            or challenged != (decision.action is PolicyAction.CHALLENGE)
            or notified != (decision.action is PolicyAction.NOTIFY)
        ):
            self.metrics.real_login_mismatches += 1
