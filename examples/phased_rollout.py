#!/usr/bin/env python3
"""The two-month phased rollout, replayed (Section 5, Figures 3-6, Table 1).

Runs the seeded rollout simulation — real accounts, real token
enrollments, real ACLs and live enforcement-mode switches on Aug 10 /
Sep 6 / Oct 4 2016 — and prints the series behind each evaluation figure.

Run:  python examples/phased_rollout.py [population]
"""

import sys
from datetime import date

from repro.analysis.report import PAPER
from repro.sim import RolloutConfig, RolloutSimulation
from repro.sim.sweep import summarize


def sparkline(values, width=60):
    """Compress a daily series into a one-line terminal sparkline."""
    blocks = " .:-=+*#%@"
    if len(values) > width:
        bucket = len(values) / width
        values = [
            max(values[int(i * bucket) : max(int((i + 1) * bucket), int(i * bucket) + 1)])
            for i in range(width)
        ]
    peak = max(max(values), 1)
    return "".join(blocks[min(int(v / peak * (len(blocks) - 1)), len(blocks) - 1)]
                   for v in values)


def main() -> None:
    population = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    print(f"simulating {population} accounts, 2016-08-01 .. 2017-03-31 ...")
    sim = RolloutSimulation(RolloutConfig(population_size=population))
    m = sim.run()
    stats = summarize(m, sim.config.seed, population)
    print(f"done. {m.real_logins_run} sampled logins ran through the real "
          f"SSH/PAM/RADIUS/OTP path; {m.real_login_mismatches} mismatches.\n")

    print("Figure 3 — unique MFA users/day")
    print("  ", sparkline(list(m.unique_mfa_users)))
    print("   ^Aug1        ^phase2(Sep6)   ^phase3(Oct4)        ^holiday   ^spring\n")

    print("Figure 4 — SSH traffic/day")
    print("   blue (ext MFA):    ", sparkline(list(m.external_mfa)))
    print("   red  (ext total):  ", sparkline(list(m.external_total)))
    print("   black (all):       ", sparkline(list(m.all_traffic)))
    print(f"   external non-MFA traffic: {stats.nonmfa_phase1:.0f}/day in phase 1 -> "
          f"{stats.nonmfa_phase2:.0f}/day in phase 2 "
          f"({stats.phase2_traffic_drop:.0%} drop)\n")

    print("Figure 5 — support tickets")
    print(f"   MFA share of tickets Aug-Dec: {stats.ticket_share_2016:.1%}  "
          f"(paper: {PAPER['ticket_share_2016']:.1%})")
    print(f"   MFA share of tickets Jan-Mar: {stats.ticket_share_2017:.1%}  "
          f"(paper: {PAPER['ticket_share_2017']:.1%})\n")

    print("Figure 6 — new pairings/day")
    print("  ", sparkline(list(m.new_pairings)))
    for day, count in m.top_pairing_days(5):
        note = {date(2016, 9, 7): "day after phase 2 (paper rank 1)",
                date(2016, 10, 4): "mandatory deadline (paper rank 4)",
                date(2016, 8, 10): "announcement"}.get(day, "")
        print(f"   {day}  {count:4d}  {note}")
    print()

    print("Table 1 — pairing type breakdown (%)")
    print(f"   {'type':<10}{'measured':>10}{'paper':>8}")
    for kind in ("soft", "sms", "training", "hard"):
        field = f"{kind}_percent"
        print(f"   {kind:<10}{getattr(stats, field):>9.2f}{PAPER[field]:>8.2f}")


if __name__ == "__main__":
    main()
