"""The support-ticket load model (Figure 5).

The paper reports that MFA inquiries were "a consistent but relatively
small amount of the ticket load throughout phases 1 and 2 while waning
after the beginning of phase 3": an average 6.7% of all tickets from
August through December, falling to 2.7% across January-March, with
post-transition inquiries "generally either from new users or those who
wished to change their MFA device pairing".

The model ties MFA tickets to the mechanisms that actually generate them:
a per-event probability on new pairings, countdown encounters, deadline
lockouts, and a small steady trickle afterwards; non-MFA tickets follow
the ordinary weekday-shaped baseline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date

from repro.sim.behavior import activity_factor


#: Baseline non-MFA tickets per weekday per 10k accounts (TACC's >10k
#: accounts generated on the order of dozens of tickets a day).
BASELINE_PER_10K = 55.0
PAIRING_TICKET_PROB = 0.020  # pairing trouble / questions
COUNTDOWN_TICKET_PROB = 0.008  # "what is this message?"
LOCKOUT_TICKET_PROB = 0.08  # locked out at the deadline
STEADY_MFA_RATE_PER_10K = 1.7  # new users / device changes


@dataclass
class TicketModel:
    """Converts daily event counts into ticket counts."""

    population: int

    def other_tickets(self, d: date, rng: random.Random) -> int:
        lam = BASELINE_PER_10K * self.population / 10_000.0 * activity_factor(d)
        return max(0, int(rng.gauss(lam, math.sqrt(max(lam, 1.0)))))

    def mfa_tickets(
        self,
        d: date,
        new_pairings: int,
        countdown_encounters: int,
        deadline_lockouts: int,
        rng: random.Random,
    ) -> int:
        lam = (
            new_pairings * PAIRING_TICKET_PROB
            + countdown_encounters * COUNTDOWN_TICKET_PROB
            + deadline_lockouts * LOCKOUT_TICKET_PROB
            + STEADY_MFA_RATE_PER_10K
            * self.population
            / 10_000.0
            * activity_factor(d)
        )
        return max(0, int(rng.gauss(lam, math.sqrt(max(lam, 0.5)))))
