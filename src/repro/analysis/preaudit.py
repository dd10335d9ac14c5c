"""The Section 4.1 information-gathering campaign, end to end.

Before any MFA enforcement, "a script was installed throughout major
systems to create a log event upon successful entry ... These messages
were aggregated over a period of months".  This module generates that
pre-MFA observation window from the same population/behaviour models the
rollout uses, writes genuine :class:`~repro.ssh.authlog.AuthLog` entries
(TTY flags included), runs :class:`~repro.analysis.loginaudit.LoginAuditor`
over them, and returns the outreach target list — closing the loop between
the S12 simulator and the S13 analysis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date
from typing import List

from repro.analysis.loginaudit import LoginAuditor, UserActivity
from repro.common.clock import VirtualClock
from repro.directory.identity import AccountClass
from repro.sim.behavior import (
    automated_connections,
    day_date,
    interactive_sessions,
    logs_in_today,
)
from repro.sim.population import Population
from repro.ssh.authlog import AuthLog


@dataclass
class InformationGatheringResult:
    """What the audit campaign hands to the outreach effort."""

    authlog: AuthLog
    auditor: LoginAuditor
    staff_threshold: int
    targets: List[UserActivity]
    service_accounts: List[str]
    total_entries: int = 0
    automated_user_count: int = 0
    automated_event_share: float = 0.0
    top_decile_share: float = field(default=0.0)


def run_information_gathering(
    population: Population,
    start: date = date(2016, 5, 1),
    days: int = 60,
    seed: int = 41,
) -> InformationGatheringResult:
    """Simulate the observation window and run the targeting pipeline."""
    clock = VirtualClock.at(f"{start.isoformat()}T00:00:00")
    rng = random.Random(seed)
    authlog = AuthLog(clock, max_entries=10_000_000)
    for day in range(days):
        d = day_date(start, day)
        for user in population.users:
            if user.automated:
                # Scripted entries: TTY-less, from the user's usual host.
                count = automated_connections(user, d, rng)
                host = f"198.51.{hash(user.username) % 200}.7"
                for _ in range(min(count, 500)):  # cap per day for memory
                    authlog.append("session_open", user.username, host, tty=False)
            if user.login_rate > 0 and logs_in_today(user, d, rng):
                sessions = interactive_sessions(user, rng)
                for _ in range(sessions):
                    ip = f"203.0.{rng.randrange(200)}.{rng.randrange(1, 255)}"
                    authlog.append("session_open", user.username, ip, tty=True)
        clock.advance(86400.0)

    auditor = LoginAuditor(authlog.entries())
    by_class = population.by_class()
    staff = [u.username for u in by_class.get(AccountClass.STAFF, [])]
    service = [u.username for u in population.service_accounts()]
    targets = auditor.targets(staff, known_service_accounts=service)
    automated_count, automated_share = auditor.automation_summary()
    return InformationGatheringResult(
        authlog=authlog,
        auditor=auditor,
        staff_threshold=auditor.staff_threshold(staff),
        targets=targets,
        service_accounts=service,
        total_entries=len(authlog),
        automated_user_count=automated_count,
        automated_event_share=automated_share,
        top_decile_share=auditor.concentration(0.1),
    )
