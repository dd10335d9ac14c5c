"""Evaluation-report generation: every paper artifact in one text report.

Downstream users regenerate the paper's evaluation with one call::

    from repro.analysis.report import evaluation_report
    print(evaluation_report())

or from the command line: ``python -m repro report [population] [seed]
[--seeds N]``.  The report computes no statistic of its own: every number
it prints is a field of :func:`repro.sim.sweep.summarize`'s
:class:`~repro.sim.sweep.SeedSummary`, and with ``seeds > 1`` the
cross-seed mean and range beside it are :func:`~repro.sim.sweep.aggregate`'s.
"""

from __future__ import annotations

from io import StringIO
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis.assurance import assurance_profile
from repro.analysis.cost import CostModel
from repro.sim import RolloutConfig, RolloutSimulation
from repro.sim.rollout import END, START
from repro.sim.sweep import SeedSummary, aggregate, run_sweep, summarize

#: The paper's own value, by :class:`SeedSummary` field (Figures 5-6, Table 1).
PAPER = {
    "ticket_share_2016": 0.067,
    "ticket_share_2017": 0.027,
    "sep7_rank": 1,
    "oct4_rank": 4,
    "soft_percent": 55.38,
    "sms_percent": 40.22,
    "training_percent": 2.97,
    "hard_percent": 1.43,
}


class _Section(NamedTuple):
    title: str
    #: ``(SeedSummary field, label, format spec)`` per printed row.
    rows: Tuple[Tuple[str, str, str], ...]
    shape: str
    holds: Callable[[SeedSummary], bool]


_SECTIONS = (
    _Section(
        "Figure 3 — unique MFA users/day",
        (
            ("mfa_users_phase1", "phase 1 (Aug 15 - Sep 5)", ".0f"),
            ("mfa_users_phase2", "phase 2 (Sep 10 - Oct 3)", ".0f"),
            ("mfa_users_phase3", "phase 3 (Oct 10 - Dec 10)", ".0f"),
            ("mfa_users_holiday", "holiday (Dec 18 - Jan 1)", ".0f"),
            ("mfa_users_spring", "spring (Feb 1 - Mar 20)", ".0f"),
            ("holiday_dip", "holiday / pre-holiday", ".2f"),
        ),
        "rise, plateau, holiday dip",
        lambda s: (
            s.mfa_users_phase1 < s.mfa_users_phase2 < s.mfa_users_phase3
            and s.holiday_dip < 0.6
        ),
    ),
    _Section(
        "Figure 4 — SSH traffic/day",
        (
            ("nonmfa_phase1", "external non-MFA, phase 1", ",.0f"),
            ("nonmfa_phase2", "external non-MFA, phase 2", ",.0f"),
            ("phase2_traffic_drop", "drop at phase 2", ".0%"),
            ("nonmfa_share_phase3", "non-MFA share, phase 3", ".0%"),
        ),
        "phase-2 drop, persistent exempt automation",
        lambda s: s.phase2_traffic_drop > 0.15 and s.nonmfa_share_phase3 > 0.3,
    ),
    _Section(
        "Figure 5 — support tickets",
        (
            ("ticket_share_2016", "MFA share Aug-Dec", ".1%"),
            ("ticket_share_2017", "MFA share Jan-Mar", ".1%"),
        ),
        "wanes after phase 3",
        lambda s: s.ticket_share_2017 < s.ticket_share_2016,
    ),
    _Section(
        "Figure 6 — new pairings/day",
        (
            ("sep7_rank", "Sep 7 rank", "d"),
            ("oct4_rank", "Oct 4 rank", "d"),
            ("predeadline_share", "paired before the deadline", ".0%"),
        ),
        "Sep 7 peak, Oct 4 spike, early majority",
        lambda s: (
            s.sep7_rank <= 2 and 2 <= s.oct4_rank <= 8 and s.predeadline_share > 0.5
        ),
    ),
    _Section(
        "Table 1 — pairing type breakdown (%)",
        (
            ("soft_percent", "soft", ".2f"),
            ("sms_percent", "sms", ".2f"),
            ("training_percent", "training", ".2f"),
            ("hard_percent", "hard", ".2f"),
        ),
        "ordering matches paper",
        lambda s: s.soft_percent > s.sms_percent > s.training_percent > s.hard_percent,
    ),
)


def _figures(
    out: StringIO, summary: SeedSummary, spread: Dict[str, Dict[str, float]]
) -> None:
    for section in _SECTIONS:
        out.write(f"{section.title}\n")
        for field, label, spec in section.rows:
            line = f"  {label:<28}{format(getattr(summary, field), spec):>8}"
            if field in PAPER:
                line += f"  (paper {format(PAPER[field], spec)})"
            if spread:
                across = spread[field]
                mean = format(across["mean"], ".1f" if spec == "d" else spec)
                line += (
                    f"  mean {mean}, range {format(across['min'], spec)}"
                    f" - {format(across['max'], spec)}"
                )
            out.write(line + "\n")
        verdict = "OK" if section.holds(summary) else "MISMATCH"
        out.write(f"  shape ({section.shape}): {verdict}\n\n")


def _assurance(out: StringIO, sim: RolloutSimulation) -> None:
    profile = assurance_profile(sim.center.identity)
    out.write("Level of Assurance (Section 3.3: level 2 -> level 3)\n")
    out.write(f"  {profile.describe()}\n\n")


def _cost(out: StringIO) -> None:
    model = CostModel()
    out.write("Cost model — build vs buy ($/yr)\n")
    for users, commercial, in_house in model.sweep([1_000, 10_000, 50_000]):
        out.write(f"  {users:>7,} users: commercial {commercial:>10,.0f}  "
                  f"in-house {in_house:>9,.0f}\n")
    out.write(f"  crossover: ~{model.crossover_users():,} users\n")


def evaluation_report(
    population: int = 10_000,
    seed: int = 20160810,
    seeds: int = 1,
    simulation: Optional[RolloutSimulation] = None,
) -> str:
    """Run the evaluation and render the paper-vs-measured report.

    ``seeds > 1`` also runs seeds ``seed + 1 … seed + seeds - 1`` (in
    parallel, without the real-path sample) and prints each statistic's
    cross-seed mean and range beside the value of ``seed``'s own run.
    """
    config = simulation.config if simulation else RolloutConfig(
        population_size=population, seed=seed, real_login_fraction=0.002
    )
    seed = config.seed
    # The sweep first: its workers fork before this process holds a population.
    others = (
        run_sweep(range(seed + 1, seed + seeds), config.population_size)
        if seeds > 1
        else []
    )
    sim = simulation or RolloutSimulation(config)
    m = sim.run()
    summary = summarize(m, seed, config.population_size)
    out = StringIO()
    out.write(
        "Reproduction report — Proctor et al., Securing HPC (SC'17)\n"
        f"population={len(sim.population)} seed={seed} "
        f"window={START}..{END}\n"
    )
    if others:
        out.write(f"mean and range: seeds {seed}..{seed + seeds - 1}\n")
    out.write(
        f"consistency: {m.real_logins_run} real-path logins sampled, "
        f"{m.real_login_mismatches} mismatches\n\n"
    )
    _figures(out, summary, aggregate([summary, *others]) if others else {})
    _assurance(out, sim)
    _cost(out)
    return out.getvalue()
