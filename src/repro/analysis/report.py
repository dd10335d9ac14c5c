"""Evaluation-report generation: every paper artifact in one text report.

Downstream users regenerate the paper's evaluation with one call::

    from repro.analysis.report import evaluation_report
    print(evaluation_report(population=1500))

or from the command line: ``python -m repro report``.
"""

from __future__ import annotations

from datetime import date
from io import StringIO
from typing import Optional

from repro.analysis.cost import CostModel
from repro.sim import RolloutConfig, RolloutSimulation
from repro.sim.metrics import DailyMetrics
from repro.sim.rollout import END, START

PAPER_TABLE1 = {"soft": 55.38, "sms": 40.22, "training": 2.97, "hard": 1.43}


def _figure3(out: StringIO, m: DailyMetrics) -> None:
    out.write("Figure 3 — unique MFA users/day\n")
    p1 = m.mean_over(m.unique_mfa_users, date(2016, 8, 15), date(2016, 9, 5))
    p2 = m.mean_over(m.unique_mfa_users, date(2016, 9, 10), date(2016, 10, 3))
    p3 = m.mean_over(m.unique_mfa_users, date(2016, 10, 10), date(2016, 12, 10))
    holiday = m.mean_over(m.unique_mfa_users, date(2016, 12, 18), date(2017, 1, 1))
    spring = m.mean_over(m.unique_mfa_users, date(2017, 2, 1), date(2017, 3, 20))
    out.write(
        f"  phase1 {p1:.0f}/day -> phase2 {p2:.0f}/day -> phase3 {p3:.0f}/day; "
        f"holiday {holiday:.0f}/day; spring {spring:.0f}/day\n"
    )
    verdict = "OK" if p1 < p2 < p3 and holiday < 0.6 * p3 else "MISMATCH"
    out.write(f"  shape (rise, plateau, holiday dip): {verdict}\n\n")


def _figure4(out: StringIO, m: DailyMetrics) -> None:
    out.write("Figure 4 — SSH traffic/day\n")
    t1 = m.mean_over(m.external_nonmfa, date(2016, 8, 10), date(2016, 9, 5))
    t2 = m.mean_over(m.external_nonmfa, date(2016, 9, 10), date(2016, 10, 3))
    t3 = m.mean_over(m.external_nonmfa, date(2016, 10, 10), date(2016, 12, 10))
    total3 = m.mean_over(m.external_total, date(2016, 10, 10), date(2016, 12, 10))
    out.write(
        f"  external non-MFA: {t1:.0f} -> {t2:.0f}/day at phase 2 "
        f"({100 * (1 - t2 / t1):.0f}% drop); phase 3 share {t3 / total3:.0%}\n"
    )
    verdict = "OK" if t2 < 0.85 * t1 and t3 / total3 > 0.3 else "MISMATCH"
    out.write(f"  shape (phase-2 drop, persistent exempt automation): {verdict}\n\n")


def _figure5(out: StringIO, m: DailyMetrics) -> None:
    out.write("Figure 5 — support tickets\n")
    transition = m.mfa_ticket_share(date(2016, 8, 10), date(2016, 12, 31))
    steady = m.mfa_ticket_share(date(2017, 1, 1), date(2017, 3, 31))
    out.write(
        f"  MFA share: Aug-Dec {transition:.1%} (paper 6.7%), "
        f"Jan-Mar {steady:.1%} (paper 2.7%)\n"
    )
    verdict = "OK" if steady < transition else "MISMATCH"
    out.write(f"  shape (wanes after phase 3): {verdict}\n\n")


def _figure6(out: StringIO, m: DailyMetrics) -> None:
    out.write("Figure 6 — new pairings/day\n")
    sep7 = m.pairing_rank_of(date(2016, 9, 7))
    oct4 = m.pairing_rank_of(date(2016, 10, 4))
    pre = m.new_pairings[: m.day_of(date(2016, 10, 4))].sum() / m.new_pairings.sum()
    out.write(
        f"  Sep 7 rank {sep7} (paper 1); Oct 4 rank {oct4} (paper 4); "
        f"{pre:.0%} paired before the deadline\n"
    )
    verdict = "OK" if sep7 <= 2 and 2 <= oct4 <= 8 and pre > 0.5 else "MISMATCH"
    out.write(f"  shape (Sep 7 peak, Oct 4 spike, early majority): {verdict}\n\n")


def _table1(out: StringIO, m: DailyMetrics) -> None:
    out.write("Table 1 — pairing type breakdown (%)\n")
    breakdown = m.pairing_breakdown_percent()
    out.write(f"  {'type':<10}{'measured':>10}{'paper':>8}\n")
    for kind in ("soft", "sms", "training", "hard"):
        out.write(
            f"  {kind:<10}{breakdown.get(kind, 0.0):>9.2f}{PAPER_TABLE1[kind]:>8.2f}\n"
        )
    ordered = (
        breakdown.get("soft", 0) > breakdown.get("sms", 0)
        > breakdown.get("training", 0) > breakdown.get("hard", 0)
    )
    out.write(f"  ordering matches paper: {'OK' if ordered else 'MISMATCH'}\n\n")


def _cost(out: StringIO) -> None:
    model = CostModel()
    out.write("Cost model — build vs buy ($/yr)\n")
    for users, commercial, in_house in model.sweep([1_000, 10_000, 50_000]):
        out.write(f"  {users:>7,} users: commercial {commercial:>10,.0f}  "
                  f"in-house {in_house:>9,.0f}\n")
    out.write(f"  crossover: ~{model.crossover_users():,} users\n")


def evaluation_report(
    population: int = 1500,
    seed: int = 20160810,
    simulation: Optional[RolloutSimulation] = None,
) -> str:
    """Run the evaluation and render the paper-vs-measured report."""
    sim = simulation or RolloutSimulation(
        RolloutConfig(population_size=population, seed=seed, real_login_fraction=0.002)
    )
    m = sim.run()
    out = StringIO()
    out.write(
        "Reproduction report — Proctor et al., Securing HPC (SC'17)\n"
        f"population={len(sim.population)} seed={sim.config.seed} "
        f"window={START}..{END}\n"
    )
    out.write(
        f"consistency: {m.real_logins_run} real-path logins sampled, "
        f"{m.real_login_mismatches} mismatches\n\n"
    )
    _figure3(out, m)
    _figure4(out, m)
    _figure5(out, m)
    _figure6(out, m)
    _table1(out, m)
    _assurance(out, sim)
    _cost(out)
    return out.getvalue()


def _assurance(out: StringIO, sim: RolloutSimulation) -> None:
    from repro.analysis.assurance import assurance_profile

    profile = assurance_profile(sim.center.identity)
    out.write("Level of Assurance (Section 3.3: level 2 -> level 3)\n")
    out.write(f"  {profile.describe()}\n\n")
