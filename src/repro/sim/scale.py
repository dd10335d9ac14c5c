"""The scaled rollout: Fig-3/Fig-4-shaped evidence at 100× the paper.

The full :class:`~repro.sim.rollout.RolloutSimulation` provisions real
accounts, enrolls real tokens and pushes sampled logins through the whole
SSH → PAM → RADIUS → OTP stack — faithful, but object-per-user, which caps
it around the paper's ~10k accounts.  This module is the population-scale
counterpart: user state lives in numpy arrays, every daily step is
vectorised, and the horizon is driven by the discrete-event core
(:class:`repro.simcore.EventScheduler`), so a **million-user,
multi-virtual-day rollout completes in seconds of wall time**.

Determinism is structural, not incidental:

* every day's draws come from a generator derived from
  ``(root seed, "day", day_index)`` — per-actor streams, so day N replays
  identically whether the run was continuous or resumed mid-horizon;
* per-day aggregates land in a canonical-JSON :class:`~repro.simcore.EventLog`
  whose SHA-256 :meth:`digest` is byte-identical across same-seed runs.

The behaviour is the full rollout's, read from the same table — the class
mix and trait distributions of :mod:`repro.sim.population`, the calendar
factors and adoption probabilities of :mod:`repro.sim.behavior` — and
compressed onto a configurable horizon via phase fractions, so a 14-day
scaled run and the paper's 243-day timeline produce the same curve shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Optional

import numpy as np

from repro.directory.identity import AccountClass
from repro.sim import behavior
from repro.sim import population as table
from repro.sim.metrics import DailyMetrics
from repro.sim.tickets import TicketModel
from repro.simcore import EventLog, EventScheduler, VirtualClock

#: The first announcement lands this far into the horizon.
ANNOUNCEMENT_FRAC = 0.10
#: Fraction of eligible users already paired at t=0 (the rollout began
#: with early adopters from the pilot).
INITIAL_PAIRED_FRACTION = 0.15
#: Spread of workflow-adaptation days around phase 2, as a share of the horizon.
ADAPTATION_SPREAD_FRAC = 0.08


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for one scaled run.

    Phases sit at fixed fractions of the horizon so any ``days`` value
    reproduces the paper's three-phase arc: announcement early, countdown
    mode at ``phase2_frac``, mandatory MFA at ``phase3_frac``.
    """

    users: int = 100_000
    days: int = 14
    seed: int = 20160810
    start: date = date(2016, 8, 1)
    phase2_frac: float = 0.40
    phase3_frac: float = 0.70

    def __post_init__(self) -> None:
        if self.users < 100:
            raise ValueError(f"scaled runs start at 100 users, got {self.users}")
        if self.days < 1:
            raise ValueError(f"need at least one day, got {self.days}")
        if not ANNOUNCEMENT_FRAC <= self.phase2_frac <= self.phase3_frac <= 1.0:
            raise ValueError("phase fractions must be ordered within [0, 1]")

    @property
    def announcement_day(self) -> int:
        return int(self.days * ANNOUNCEMENT_FRAC)

    @property
    def phase2_day(self) -> int:
        return int(self.days * self.phase2_frac)

    @property
    def phase3_day(self) -> int:
        return int(self.days * self.phase3_frac)


class ScaledRollout:
    """Vectorised population state driven by daily scheduled events."""

    def __init__(self, config: Optional[ScaleConfig] = None) -> None:
        self.config = config or ScaleConfig()
        cfg = self.config
        clock = VirtualClock.at(f"{cfg.start.isoformat()}T00:00:00")
        self.scheduler = scheduler = EventScheduler(clock=clock, seed=cfg.seed)
        self.metrics = DailyMetrics(cfg.start, cfg.days)
        self.log = EventLog(clock=scheduler.clock, epoch=scheduler.clock.now())
        self.tickets = TicketModel(cfg.users)
        self._tickets_rng = scheduler.rng("tickets")
        self.phase = "paired"
        self._base = scheduler.clock.now()
        self._scheduled = False
        self._build_population()

    # -- population (one vectorised draw pass) ------------------------------

    def _build_population(self) -> None:
        cfg = self.config
        n = cfg.users
        g = self.scheduler.streams.numpy_generator("population")
        pick = g.random(n)
        # The class mix as cumulative thresholds on one uniform draw;
        # gateway and community accounts are one "service" band here.
        mix = dict(table.CLASS_MIX)
        staff = mix[AccountClass.STAFF]
        service = staff + mix[AccountClass.GATEWAY] + mix[AccountClass.COMMUNITY]
        training = service + mix[AccountClass.TRAINING]
        self.is_staff = pick < staff
        self.is_service = (pick >= staff) & (pick < service)
        self.is_training = (pick >= service) & (pick < training)
        individual = pick >= training

        def draw(sample, trait: table.Draw, size: int = n):
            return np.clip(sample(trait.a, trait.b, size), trait.low, trait.high)

        self.login_rate = np.where(
            self.is_staff,
            np.maximum(0.05, draw(g.normal, table.STAFF_LOGIN_RATE)),
            np.where(
                self.is_training,
                table.TRAINING_LOGIN_RATE,
                draw(g.lognormal, table.INDIVIDUAL_LOGIN_RATE),
            ),
        )
        self.login_rate[self.is_service] = 0.0
        self.sessions = np.where(
            self.is_staff,
            draw(g.normal, table.STAFF_SESSIONS),
            np.where(
                self.is_training,
                table.TRAINING_SESSIONS,
                draw(g.normal, table.INDIVIDUAL_SESSIONS),
            ),
        )
        self.external_frac = np.where(
            self.is_staff,
            table.STAFF_EXTERNAL_FRACTION,
            np.where(
                self.is_training,
                table.TRAINING_EXTERNAL_FRACTION,
                draw(g.normal, table.INDIVIDUAL_EXTERNAL_FRACTION),
            ),
        )
        self.eagerness = np.where(
            self.is_staff,
            draw(g.normal, table.STAFF_EAGERNESS),
            np.where(
                self.is_training,
                table.TRAINING_EAGERNESS,
                draw(g.beta, table.INDIVIDUAL_EAGERNESS),
            ),
        )
        # Automation: every service account, plus a share of individuals.
        self.automated = self.is_service | (
            individual & (g.random(n) < table.AUTOMATED_SHARE)
        )
        self.auto_conns = np.zeros(n)
        self.auto_conns[self.is_service] = draw(
            g.normal, table.SERVICE_CONNECTIONS, int(self.is_service.sum())
        )
        auto_ind = self.automated & ~self.is_service
        self.auto_conns[auto_ind] = draw(
            g.lognormal, table.AUTOMATED_CONNECTIONS, int(auto_ind.sum())
        )
        # Automated individuals adapt their workflows around phase 2, with
        # a straggler tail (behavior.AdaptationModel, discretised).
        spread = max(1.0, cfg.days * ADAPTATION_SPREAD_FRAC)
        self.adaptation_day = np.full(n, np.iinfo(np.int32).max, dtype=np.int64)
        self.adaptation_day[auto_ind] = np.clip(
            np.rint(g.normal(cfg.phase2_day, spread, int(auto_ind.sum()))),
            max(0, cfg.announcement_day),
            cfg.days + behavior.BROKEN_AUTOMATION_ADAPTS_DAYS,
        ).astype(np.int64)

        #: Pairing eligibility: service accounts are exempt (real ACL rules
        #: in the full rollout) and never pair.
        self.eligible = ~self.is_service
        self.paired = self.eligible & (g.random(n) < INITIAL_PAIRED_FRACTION)
        # Training accounts pair just before "their" workshop day.
        self.workshop_day = g.integers(0, cfg.days, n)
        self.paired &= ~self.is_training
        self.pending_pair = np.zeros(n, dtype=bool)
        self.countdown_seen = np.zeros(n, dtype=bool)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self) -> None:
        cfg = self.config
        # One-shot phase switches are scheduled before the daily ticks, so
        # on their shared instant the mode flips before the day is lived —
        # the same ordering the event-driven full rollout uses.
        self.scheduler.schedule_at(
            self._base + cfg.announcement_day * 86400.0, self._set_phase, "announced"
        )
        self.scheduler.schedule_at(
            self._base + cfg.phase2_day * 86400.0, self._set_phase, "countdown"
        )
        self.scheduler.schedule_at(
            self._base + cfg.phase3_day * 86400.0, self._set_phase, "full"
        )
        for day in range(cfg.days):
            self.scheduler.schedule_at(self._base + day * 86400.0, self._day_tick, day)
        self._scheduled = True

    def run(self, until_day: Optional[int] = None) -> DailyMetrics:
        """Drive the horizon (or a prefix of it; call again to resume).

        ``run(until_day=k)`` fires everything through day ``k`` inclusive;
        a later ``run()`` resumes seamlessly and, because every day draws
        from its own derived stream, produces byte-identical aggregates to
        a single continuous run.
        """
        if not self._scheduled:
            self._schedule()
        cfg = self.config
        horizon = cfg.days if until_day is None else min(until_day, cfg.days)
        self.scheduler.run_until(self._base + horizon * 86400.0)
        return self.metrics

    def _set_phase(self, phase: str) -> None:
        self.phase = phase
        self.log.append("phase", phase=phase)

    # -- the vectorised daily step -------------------------------------------

    def _day_tick(self, day: int) -> None:
        cfg = self.config
        d = cfg.start + timedelta(days=day)
        g = self.scheduler.streams.numpy_generator("day", day)
        n = cfg.users
        factor = behavior.activity_factor(d)
        phase2, phase3 = cfg.phase2_day, cfg.phase3_day

        # 1. Pairings decided yesterday (countdown / announcement reactions).
        pair_now = self.pending_pair & ~self.paired & self.eligible
        self.pending_pair = np.zeros(n, dtype=bool)

        unpaired = self.eligible & ~self.paired & ~self.is_training
        # Voluntary opt-in hazard after the announcement (decaying).
        if cfg.announcement_day <= day < phase3:
            age = day - cfg.announcement_day
            decay = 0.5 ** (age / max(2.0, cfg.days * 0.05))
            hazard = behavior.VOLUNTARY_SCALE * self.eagerness * decay
            pair_now |= unpaired & (g.random(n) < hazard)
        # The phase-2 mass email lands: part of the unpaired pool reacts by
        # pairing the following day (the paper's Sep 7 peak).
        if day == phase2:
            self.pending_pair |= unpaired & (
                g.random(n) < behavior.PHASE2_ANNOUNCE_PROB * self.eagerness
            )
        # Training workshops pair on their session day.
        pair_now |= self.is_training & ~self.paired & (self.workshop_day == day)
        # Mandatory-deadline day: some holdouts pair proactively.
        if day == phase3:
            pair_now |= unpaired & (g.random(n) < behavior.DEADLINE_PROB)

        # 2. Interactive logins.
        active = g.random(n) < self.login_rate * factor
        idx = np.flatnonzero(active)
        sessions = np.maximum(1, g.poisson(self.sessions[idx]))
        external = g.binomial(sessions, self.external_frac[idx])
        internal_total = int((sessions - external).sum())

        paired_today = self.paired | pair_now
        paired_at = paired_today[idx]
        ext_mfa = int(external[paired_at].sum())
        unique = int(np.count_nonzero(paired_at & (external > 0)))
        unpaired_at = ~paired_at & self.eligible[idx]
        unpaired_ext = external[unpaired_at]
        ext_nonmfa = 0
        lockouts = 0
        countdown_encounters = 0
        if day >= phase3:
            # Unpaired in full mode: denied; most pair same day via the
            # portal and their retry succeeds with MFA.
            blocked = np.flatnonzero(unpaired_at & (external > 0))
            lockouts = int(blocked.size)
            recover = blocked[
                g.random(blocked.size) < behavior.BLOCKED_PAIRS_SAME_DAY_PROB
            ]
            pair_now[idx[recover]] = True
            ext_mfa += int(external[recover].sum())
            unique += int(recover.size)
        else:
            ext_nonmfa += int(unpaired_ext.sum())
            if day >= phase2:
                # Countdown message seen; decide tomorrow.
                seen = np.flatnonzero(unpaired_at & (external > 0))
                countdown_encounters = int(seen.size)
                seen_idx = idx[seen]
                first = ~self.countdown_seen[seen_idx]
                prob = np.where(
                    first, behavior.COUNTDOWN_FIRST_PROB, behavior.COUNTDOWN_REPEAT_PROB
                ) * np.maximum(
                    behavior.COUNTDOWN_EAGERNESS_FLOOR,
                    self.eagerness[seen_idx] + behavior.COUNTDOWN_EAGERNESS_BOOST,
                )
                self.countdown_seen[seen_idx] = True
                self.pending_pair[seen_idx[g.random(seen_idx.size) < prob]] = True

        # 3. Automated traffic (does not take weekends off).
        auto_idx = np.flatnonzero(self.automated)
        lam = self.auto_conns[auto_idx] * behavior.automation_factor(d)
        conns = np.maximum(
            0.0, g.normal(lam, np.sqrt(np.maximum(lam, 1.0)))
        ).astype(np.int64)
        service_at = self.is_service[auto_idx]
        # Exempt gateway/community traffic: external, never MFA, all phases.
        ext_nonmfa += int(conns[service_at].sum())
        ind_auto = ~service_at
        adapted = self.adaptation_day[auto_idx] <= day
        pre = ind_auto & ~adapted
        post = ind_auto & adapted
        if day >= phase3:
            # Unadapted, unexempted automation breaks at the deadline; it
            # adapts within days.
            broke = np.flatnonzero(pre & (conns > 0))
            lockouts += int(broke.size)
            self.adaptation_day[auto_idx[broke]] = np.minimum(
                self.adaptation_day[auto_idx[broke]],
                day + behavior.BROKEN_AUTOMATION_ADAPTS_DAYS,
            )
        else:
            ext_nonmfa += int(conns[pre].sum())
        # Adapted split: cron moved internal, one authenticated multiplexed
        # master carries the external share, a sliver rides variances.
        post_conns = conns[post]
        internal_total += int((post_conns * 0.55).sum())
        masters = post_conns > 0
        paired_post = paired_today[auto_idx[post]]
        ext_mfa += int(np.count_nonzero(masters & paired_post))
        ext_nonmfa += int((post_conns * 0.15).sum())

        # 4. Commit pairing state and the day's aggregates.
        new_pairings = int(np.count_nonzero(pair_now & ~self.paired))
        self.paired |= pair_now

        m = self.metrics
        m.unique_mfa_users[day] = unique
        m.external_mfa[day] = ext_mfa
        m.external_nonmfa[day] = ext_nonmfa
        m.internal[day] = internal_total
        m.new_pairings[day] = new_pairings
        m.mfa_tickets[day] = self.tickets.mfa_tickets(
            d, new_pairings, countdown_encounters, lockouts, self._tickets_rng
        )
        m.other_tickets[day] = self.tickets.other_tickets(d, self._tickets_rng)
        self.log.append(
            "day",
            day=day,
            phase=self.phase,
            unique_mfa_users=unique,
            external_mfa=ext_mfa,
            external_nonmfa=ext_nonmfa,
            internal=internal_total,
            new_pairings=new_pairings,
            lockouts=lockouts,
            paired_total=int(self.paired.sum()),
        )

    # -- reporting -----------------------------------------------------------

    def digest(self) -> str:
        """SHA-256 over the run's canonical event log (determinism witness)."""
        return self.log.digest()

    def paired_fraction(self) -> float:
        eligible = int(self.eligible.sum())
        return float(self.paired.sum()) / eligible if eligible else 0.0

    def summary(self) -> dict:
        m = self.metrics
        cfg = self.config
        return {
            "users": cfg.users,
            "days": cfg.days,
            "seed": cfg.seed,
            "phase_days": {
                "announcement": cfg.announcement_day,
                "phase2": cfg.phase2_day,
                "phase3": cfg.phase3_day,
            },
            "events": len(self.log),
            "scheduler_fired": self.scheduler.fired,
            "paired_fraction": round(self.paired_fraction(), 4),
            "unique_mfa_users_final": int(m.unique_mfa_users[-1]),
            "external_mfa_total": int(m.external_mfa.sum()),
            "external_nonmfa_total": int(m.external_nonmfa.sum()),
            "internal_total": int(m.internal.sum()),
            "new_pairings_total": int(m.new_pairings.sum()),
            "digest": self.digest(),
        }


def simulate(
    users: int, days: int, seed: int, start: Optional[date] = None
) -> ScaledRollout:
    """Run one scaled rollout to completion (the CLI entry point)."""
    config = ScaleConfig(
        users=users, days=days, seed=seed, start=start or date(2016, 8, 1)
    )
    rollout = ScaledRollout(config)
    rollout.run()
    return rollout


__all__ = ["ScaleConfig", "ScaledRollout", "simulate"]
