"""The synthetic user population.

Encodes the facts the paper gives about TACC's user base:

* thousands of direct SSH users plus gateway/community accounts acting for
  satellite users (Section 2);
* "a minority of users were responsible for the majority of entries" —
  hundreds of accounts, heavily automated (Section 4.1);
* staff are "roughly outnumbered by SSH users a hundredfold" (Section 4.2)
  and "tend to be quite active" (Section 4.1);
* final device preferences of Table 1 (Soft 55.38 / SMS 40.22 /
  Training 2.97 / Hard 1.43 %);
* training accounts exist solely for workshops and carry static codes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple

from repro.directory.identity import AccountClass

# -- the population table ----------------------------------------------------
# Every number of the synthetic population; ``Population`` below draws one
# ``UserProfile`` per account from it.

#: Device choice distribution among non-training pairings, renormalized
#: from Table 1 (training accounts always pair with the static type).
DEVICE_WEIGHTS = (("soft", 55.38), ("sms", 40.22), ("hard", 1.43))

#: Class mix.  Training sized so training pairings land near Table 1's
#: 2.97% of all pairings; gateway/community "that number again" interface
#: through a much smaller count of shared accounts.
CLASS_MIX = (
    (AccountClass.STAFF, 0.010),
    (AccountClass.GATEWAY, 0.004),
    (AccountClass.COMMUNITY, 0.006),
    (AccountClass.TRAINING, 0.030),
)


class Draw(NamedTuple):
    """One trait's distribution: its two parameters (gauss ``mean, sd`` unless
    noted), then the bounds the draw is clipped to."""

    a: float
    b: float
    low: float = -math.inf
    high: float = math.inf


#: Staff "tend to be quite active" (Section 4.1) and opt in early.
STAFF_LOGIN_RATE = Draw(0.70, 0.10, high=0.95)
STAFF_SESSIONS = Draw(6.0, 2.0, low=2.0)
STAFF_EXTERNAL_FRACTION = 0.35
STAFF_EAGERNESS = Draw(0.85, 0.10, 0.35, 1.0)
#: Training accounts are only active around workshop days; staff pair them
#: before each session.
TRAINING_LOGIN_RATE = 0.03
TRAINING_SESSIONS = 2.0
TRAINING_EXTERNAL_FRACTION = 0.9
TRAINING_EAGERNESS = 1.0
#: Gateways negotiate "in an automated fashion on behalf of these users":
#: hundreds of connections a day.
SERVICE_CONNECTIONS = Draw(220.0, 80.0, low=50.0)
#: "a non-negligible number of user accounts, on the order of hundreds" out
#: of >10k -> ~3.5% of individuals automate (lognormal daily connections).
AUTOMATED_SHARE = 0.035
AUTOMATED_CONNECTIONS = Draw(3.6, 0.9, low=10.0)
#: Heavy-tailed interactive activity (lognormal): most users log in a few
#: times a week; a long tail is on daily.
INDIVIDUAL_LOGIN_RATE = Draw(-1.8, 0.8, high=0.9)
INDIVIDUAL_SESSIONS = Draw(2.5, 1.0, low=1.0)
INDIVIDUAL_EXTERNAL_FRACTION = Draw(0.75, 0.12, 0.4, 0.95)
INDIVIDUAL_EAGERNESS = Draw(1.6, 2.4, 0.02, 1.0)  # beta


@dataclass
class UserProfile:
    """Behavioural parameters for one account (state lives in the rollout)."""

    username: str
    account_class: AccountClass
    device_preference: str  # soft | sms | hard | training
    # Interactive behaviour
    login_rate: float  # probability of >= 1 interactive login on a workday
    sessions_per_active_day: float  # mean SSH connections when active
    external_fraction: float  # share of connections from outside the center
    # Automation
    automated: bool
    automated_daily_connections: float  # scripted SSH/SCP events per day
    # Adoption behaviour
    eagerness: float  # in (0, 1]: how early the user opts in voluntarily
    uses_multiplexing: bool = False

    @property
    def is_service_account(self) -> bool:
        return self.account_class in (AccountClass.GATEWAY, AccountClass.COMMUNITY)


def _choose_device(rng: random.Random) -> str:
    total = sum(w for _, w in DEVICE_WEIGHTS)
    pick = rng.random() * total
    acc = 0.0
    for device, weight in DEVICE_WEIGHTS:
        acc += weight
        if pick <= acc:
            return device
    return DEVICE_WEIGHTS[-1][0]


def _draw(sample, trait: Draw) -> float:
    """``sample(a, b)`` (a ``random.Random`` method) clipped to the bounds."""
    return min(trait.high, max(trait.low, sample(trait.a, trait.b)))


def _sample_class(rng: random.Random) -> AccountClass:
    pick = rng.random()
    acc = 0.0
    for account_class, share in CLASS_MIX:
        acc += share
        if pick < acc:
            return account_class
    return AccountClass.INDIVIDUAL


class Population:
    """A reproducible population of :class:`UserProfile` records."""

    def __init__(self, size: int, seed: int = 20160810) -> None:
        if size < 50:
            raise ValueError(f"population of {size} is too small to be meaningful")
        self.seed = seed
        rng = random.Random(seed)
        self.users: List[UserProfile] = []
        automated_individuals = 0
        for i in range(size):
            account_class = _sample_class(rng)
            username = f"{account_class.value[:2]}user{i:05d}"
            if account_class is AccountClass.STAFF:
                profile = UserProfile(
                    username=username,
                    account_class=account_class,
                    device_preference=_choose_device(rng),
                    login_rate=_draw(rng.gauss, STAFF_LOGIN_RATE),
                    sessions_per_active_day=_draw(rng.gauss, STAFF_SESSIONS),
                    external_fraction=STAFF_EXTERNAL_FRACTION,
                    automated=False,
                    automated_daily_connections=0.0,
                    eagerness=_draw(rng.gauss, STAFF_EAGERNESS),
                )
            elif account_class is AccountClass.TRAINING:
                profile = UserProfile(
                    username=username,
                    account_class=account_class,
                    device_preference="training",
                    login_rate=TRAINING_LOGIN_RATE,
                    sessions_per_active_day=TRAINING_SESSIONS,
                    external_fraction=TRAINING_EXTERNAL_FRACTION,
                    automated=False,
                    automated_daily_connections=0.0,
                    eagerness=TRAINING_EAGERNESS,
                )
            elif account_class in (AccountClass.GATEWAY, AccountClass.COMMUNITY):
                profile = UserProfile(
                    username=username,
                    account_class=account_class,
                    device_preference="none",  # exempt; never pairs
                    login_rate=0.0,
                    sessions_per_active_day=0.0,
                    external_fraction=1.0,
                    automated=True,
                    automated_daily_connections=_draw(rng.gauss, SERVICE_CONNECTIONS),
                    eagerness=0.0,
                )
            else:
                automated = rng.random() < AUTOMATED_SHARE
                if automated:
                    automated_individuals += 1
                rate = _draw(rng.lognormvariate, INDIVIDUAL_LOGIN_RATE)
                profile = UserProfile(
                    username=username,
                    account_class=account_class,
                    device_preference=_choose_device(rng),
                    login_rate=rate,
                    sessions_per_active_day=_draw(rng.gauss, INDIVIDUAL_SESSIONS),
                    external_fraction=_draw(rng.gauss, INDIVIDUAL_EXTERNAL_FRACTION),
                    automated=automated,
                    automated_daily_connections=(
                        _draw(rng.lognormvariate, AUTOMATED_CONNECTIONS)
                        if automated
                        else 0.0
                    ),
                    eagerness=_draw(rng.betavariate, INDIVIDUAL_EAGERNESS),
                )
                profile.uses_multiplexing = automated and rng.random() < 0.5
            self.users.append(profile)
        self.automated_individuals = automated_individuals

    def __len__(self) -> int:
        return len(self.users)

    def by_class(self) -> Dict[AccountClass, List[UserProfile]]:
        out: Dict[AccountClass, List[UserProfile]] = {}
        for user in self.users:
            out.setdefault(user.account_class, []).append(user)
        return out

    def service_accounts(self) -> List[UserProfile]:
        return [u for u in self.users if u.is_service_account]
