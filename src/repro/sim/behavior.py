"""Daily behaviour models: calendars, login propensity, adoption triggers.

Separated from the rollout loop so each mechanism is testable on its own:
the weekday/weekend/holiday calendar, the probability a user logs in on a
given day, how much automated traffic they generate, and the decision rules
for *when* an unpaired user finally pairs (spontaneously after the
announcement, the day after a countdown encounter, or at the mandatory
deadline).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

from repro.sim.population import UserProfile

#: Winter-holiday window with the Figure-3 dip ("a decline in unique users
#: is noted during the winter holiday").
HOLIDAY_START = date(2016, 12, 17)
HOLIDAY_END = date(2017, 1, 2)

#: Spring semester start: "Beginning with the Spring semester, new pairings
#: once again increased."
SPRING_SEMESTER = date(2017, 1, 17)

WEEKEND_FACTOR = 0.40
HOLIDAY_FACTOR = 0.25
#: Scripted traffic thins over the holidays (jobs finish, nobody resubmits).
HOLIDAY_AUTOMATION_FACTOR = 0.7

# -- the adoption table ----------------------------------------------------
# When an unpaired user pairs; ``AdoptionModel`` below reads these.
#: Voluntary opt-in after the announcement: daily hazard at full eagerness,
#: halving every ``VOLUNTARY_HALFLIFE`` days.
VOLUNTARY_SCALE = 0.055
VOLUNTARY_HALFLIFE = 12.0
#: Pairing the day after a countdown prompt: first sighting, then repeats,
#: each scaled by ``max(COUNTDOWN_EAGERNESS_FLOOR, eagerness +
#: COUNTDOWN_EAGERNESS_BOOST)``.
COUNTDOWN_FIRST_PROB = 0.70
COUNTDOWN_REPEAT_PROB = 0.30
COUNTDOWN_EAGERNESS_FLOOR = 0.35
COUNTDOWN_EAGERNESS_BOOST = 0.3
#: Response to the phase-2 announcement itself (mass email/user news):
#: unpaired users pair the next day with this probability scaled by
#: eagerness, independent of whether they hit the SSH countdown prompt.
#: This is what concentrates the paper's biggest pairing day on Sep 7.
PHASE2_ANNOUNCE_PROB = 0.20
#: Probability an unpaired user reacts to the mandatory-day banner and
#: mass email by pairing that same day (the rest pair when MFA first
#: blocks them).  Low enough that Oct 4 is a spike but not the peak —
#: the paper ranks it fourth, behind the Sep 7 countdown response.
DEADLINE_PROB = 0.08
#: A user MFA blocks in full mode pairs through the portal that same day
#: with this probability; the rest become lockout tickets.
BLOCKED_PAIRS_SAME_DAY_PROB = 0.8
#: Unadapted automation that breaks at the deadline is fixed within days.
BROKEN_AUTOMATION_ADAPTS_DAYS = 3


def day_date(start: date, day_index: int) -> date:
    return start + timedelta(days=day_index)


def activity_factor(d: date) -> float:
    """Multiplier on login propensity for calendar effects."""
    factor = 1.0
    if d.weekday() >= 5:
        factor *= WEEKEND_FACTOR
    if HOLIDAY_START <= d <= HOLIDAY_END:
        factor *= HOLIDAY_FACTOR
    return factor


def logs_in_today(user: UserProfile, d: date, rng: random.Random) -> bool:
    """Does this user make >= 1 interactive login today?"""
    return rng.random() < user.login_rate * activity_factor(d)


def interactive_sessions(user: UserProfile, rng: random.Random) -> int:
    """How many interactive SSH connections an active day produces."""
    lam = user.sessions_per_active_day
    # Poisson via inversion; lam is small (< ~10) so this is cheap.
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return max(1, k)
        k += 1


def automation_factor(d: date) -> float:
    """Multiplier on scripted traffic: automation does not take weekends
    off, but holidays thin it slightly."""
    return HOLIDAY_AUTOMATION_FACTOR if HOLIDAY_START <= d <= HOLIDAY_END else 1.0


def automated_connections(user: UserProfile, d: date, rng: random.Random) -> int:
    """Scripted connection volume (cron transfers, job polling)."""
    if not user.automated:
        return 0
    lam = user.automated_daily_connections * automation_factor(d)
    # Normal approximation for the large-lambda Poisson.
    return max(0, int(rng.gauss(lam, math.sqrt(lam))))


@dataclass
class AdoptionModel:
    """When an unpaired user decides to pair (Figure 6's spike structure).

    Three triggers, matching Section 5:

    * **announcement** (Aug 10): eager users pair voluntarily, with an
      exponentially decaying daily hazard;
    * **countdown encounter** (phase 2): a user who hits the "x days left"
      message pairs *the next day* with high probability — which is what
      makes Sep 7, the day after phase 2 began, the single biggest pairing
      day in the paper;
    * **mandatory deadline** (Oct 4): holdouts pair the day MFA blocks them.
    """

    announcement_day: int

    def pairs_after_phase2_announcement(
        self, user: UserProfile, rng: random.Random
    ) -> bool:
        return rng.random() < PHASE2_ANNOUNCE_PROB * user.eagerness

    def voluntary_hazard(self, user: UserProfile, day: int) -> float:
        """Daily probability of spontaneous opt-in during phases 1-2."""
        if day < self.announcement_day:
            return 0.0
        age = day - self.announcement_day
        decay = 0.5 ** (age / VOLUNTARY_HALFLIFE)
        return VOLUNTARY_SCALE * user.eagerness * decay

    def pairs_after_countdown(
        self, user: UserProfile, encounters: int, rng: random.Random
    ) -> bool:
        """Decision made the day after seeing the countdown message."""
        prob = COUNTDOWN_FIRST_PROB if encounters <= 1 else COUNTDOWN_REPEAT_PROB
        return rng.random() < prob * max(
            COUNTDOWN_EAGERNESS_FLOOR, user.eagerness + COUNTDOWN_EAGERNESS_BOOST
        )

    def pairs_at_deadline(self, user: UserProfile, rng: random.Random) -> bool:
        return rng.random() < DEADLINE_PROB


@dataclass
class AdaptationModel:
    """How automated workflows adjusted (Section 5's mitigations).

    Each automated individual gets an adaptation day sampled between the
    first targeted-outreach wave and shortly after the mandatory deadline;
    on adaptation their external scripted traffic is redistributed:
    moved onto login-node cron (becomes internal), funneled through an
    authenticated multiplexed master, or covered by a temporary variance.
    """

    outreach_day: int  # when staff began contacting targeted users
    phase2_day: int
    phase3_day: int

    def sample_adaptation_day(self, user: UserProfile, rng: random.Random) -> int:
        # Most adapted around the phase-2 transition; stragglers after.
        center = self.phase2_day + rng.gauss(0.0, 8.0)
        day = int(max(self.outreach_day, min(self.phase3_day + 14, center)))
        return day

    def adapted_split(
        self, rng: random.Random
    ) -> tuple:
        """(internal_share, multiplexed_share, variance_share) after adapting."""
        internal = 0.45 + rng.random() * 0.2  # cron moved onto login nodes
        multiplexed = 0.25 + rng.random() * 0.15
        variance = max(0.0, 1.0 - internal - multiplexed)
        total = internal + multiplexed + variance
        return internal / total, multiplexed / total, variance / total
