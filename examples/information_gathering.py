#!/usr/bin/env python3
"""Section 4.1: the pre-MFA information-gathering campaign.

Replays the months before the rollout: an entry-audit script logs every
successful login with TTY state, staff aggregate the volume, rank users,
use their own activity as the threshold, filter out known gateways, and
produce the outreach list — then the workload-manager mitigations that
those conversations produced (mail-on-completion, job dependencies) are
demonstrated against the polling workflow they replaced.

Run:  python examples/information_gathering.py
"""

import random

from repro.common.clock import VirtualClock
from repro.sim.population import Population
from repro.analysis.preaudit import run_information_gathering
from repro.workload.scheduler import BatchScheduler, MailEvent


def main() -> None:
    population = Population(1000, seed=41)
    print(f"observing {len(population)} accounts for 60 days "
          f"(pre-MFA entry-audit logging)...")
    result = run_information_gathering(population, days=60, seed=42)

    print(f"\ncollected {result.total_entries:,} entry events")
    count, share = result.automated_user_count, result.automated_event_share
    print(f"accounts that mostly log in without a TTY: {count} "
          f"— responsible for {share:.0%} of all entries")
    print(f"top 10% of accounts produce {result.top_decile_share:.0%} of entries "
          f'("a minority of users ... the majority of entries")')

    print(f"\nstaff threshold (most active staff member): "
          f"{result.staff_threshold:,} events")
    print(f"known gateway/community accounts filtered: "
          f"{len(result.service_accounts)}")
    print(f"outreach target list ({len(result.targets)} accounts):")
    for target in result.targets[:8]:
        print(f"   {target.username:<14} {target.total_events:>8,} events   "
              f"{target.notty_fraction:>4.0%} TTY-less   "
              f"{target.distinct_ips} origin(s)")

    suspects = result.auditor.shared_account_suspects()
    if suspects:
        print(f"\npossible shared accounts (many origins): {suspects[:5]}")

    # --- the mitigation staff proposed in those conversations ----------------
    print("\n--- replacing cron polling with scheduler mail ---")
    clock = VirtualClock.at("2016-09-01T08:00:00")
    scheduler = BatchScheduler(clock=clock, nodes=8, rng=random.Random(7))
    # A five-stage pipeline submitted up front with dependencies: zero
    # interactive decisions while it runs.
    previous = None
    for stage in range(5):
        previous = scheduler.submit(
            "datamover", f"pipeline-stage{stage}", wall_seconds=2 * 3600,
            depends_on=[previous.job_id] if previous else None,
            mail_events={MailEvent.END, MailEvent.FAIL},
            mail_to="datamover@utexas.edu",
        )
    polls_avoided = 0
    while scheduler.squeue("datamover"):
        scheduler.tick()
        polls_avoided += 1  # what the old cron would have done
        clock.advance(300)
    print(f"pipeline of 5 dependent jobs completed; states: {scheduler.states()}")
    print(f"emails sent: {scheduler.mails_sent}; "
          f"SSH polling logins avoided: {polls_avoided}")
    inbox = scheduler.mailer.inbox("datamover@utexas.edu")
    print("last notification:", inbox[-1].subject)


if __name__ == "__main__":
    main()
