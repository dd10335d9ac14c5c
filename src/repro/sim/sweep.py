"""Parallel cross-seed sweeps of the rollout simulation.

A single seeded run shows *a* rollout; the paper's qualitative claims
should hold for *any* seed.  This module fans independent seeds out over
a process pool (each simulation is CPU-bound, single-threaded and fully
deterministic, so seeds parallelize embarrassingly), reduces each run to
a compact :class:`SeedSummary` of the figure-level statistics, and
aggregates mean/min/max across seeds — the confidence intervals behind
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import date
from multiprocessing import Pool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import DailyMetrics
from repro.sim.rollout import RolloutConfig, RolloutSimulation


@dataclass(frozen=True)
class SeedSummary:
    """The figure-level statistics of one rollout run (picklable).

    The one reduction of a run's daily series: the evaluation report
    renders it, the sweep aggregates it, EXPERIMENTS.md quotes it.
    """

    seed: int
    population: int
    # Figure 3: mean unique MFA users/day over each window.
    mfa_users_phase1: float
    mfa_users_phase2: float
    mfa_users_phase3: float
    mfa_users_holiday: float
    mfa_users_spring: float
    holiday_dip: float  # holiday unique-users / pre-holiday unique-users
    # Figure 4: mean external non-MFA connections/day.
    nonmfa_phase1: float
    nonmfa_phase2: float
    phase2_traffic_drop: float  # fractional drop, phase 1 -> phase 2
    nonmfa_share_phase3: float  # of all external traffic
    # Figure 5
    ticket_share_2016: float
    ticket_share_2017: float
    # Figure 6
    sep7_rank: int
    oct4_rank: int
    predeadline_share: float
    # Table 1
    soft_percent: float
    sms_percent: float
    training_percent: float
    hard_percent: float


def summarize(metrics: DailyMetrics, seed: int, population: int) -> SeedSummary:
    """Reduce a run's daily series to the figure-level statistics."""
    mean = metrics.mean_over
    users, nonmfa = metrics.unique_mfa_users, metrics.external_nonmfa
    phase3 = (date(2016, 10, 10), date(2016, 12, 10))
    t1 = mean(nonmfa, date(2016, 8, 10), date(2016, 9, 5))
    t2 = mean(nonmfa, date(2016, 9, 10), date(2016, 10, 3))
    external3 = mean(metrics.external_total, *phase3)
    pre_holiday = mean(users, date(2016, 11, 28), date(2016, 12, 14))
    holiday = mean(users, date(2016, 12, 18), date(2017, 1, 1))
    deadline = metrics.day_of(date(2016, 10, 4))
    total_pairings = metrics.new_pairings.sum()
    breakdown = metrics.pairing_breakdown_percent()
    return SeedSummary(
        seed=seed,
        population=population,
        mfa_users_phase1=mean(users, date(2016, 8, 15), date(2016, 9, 5)),
        mfa_users_phase2=mean(users, date(2016, 9, 10), date(2016, 10, 3)),
        mfa_users_phase3=mean(users, *phase3),
        mfa_users_holiday=holiday,
        mfa_users_spring=mean(users, date(2017, 2, 1), date(2017, 3, 20)),
        holiday_dip=float(holiday / pre_holiday) if pre_holiday else 0.0,
        nonmfa_phase1=t1,
        nonmfa_phase2=t2,
        phase2_traffic_drop=float(1.0 - t2 / t1) if t1 else 0.0,
        nonmfa_share_phase3=(
            float(mean(nonmfa, *phase3) / external3) if external3 else 0.0
        ),
        ticket_share_2016=metrics.mfa_ticket_share(date(2016, 8, 10), date(2016, 12, 31)),
        ticket_share_2017=metrics.mfa_ticket_share(date(2017, 1, 1), date(2017, 3, 31)),
        sep7_rank=metrics.pairing_rank_of(date(2016, 9, 7)),
        oct4_rank=metrics.pairing_rank_of(date(2016, 10, 4)),
        predeadline_share=(
            float(metrics.new_pairings[:deadline].sum() / total_pairings)
            if total_pairings
            else 0.0
        ),
        soft_percent=breakdown.get("soft", 0.0),
        sms_percent=breakdown.get("sms", 0.0),
        training_percent=breakdown.get("training", 0.0),
        hard_percent=breakdown.get("hard", 0.0),
    )


def _run_one(args: Tuple[int, int]) -> SeedSummary:
    """Pool worker: build, run and summarize one seed (top-level so it
    pickles under the spawn start method too)."""
    seed, population = args
    config = RolloutConfig(
        population_size=population, seed=seed, real_login_fraction=0.0
    )
    metrics = RolloutSimulation(config).run()
    return summarize(metrics, seed, population)


def run_sweep(
    seeds: Sequence[int],
    population: int,
    processes: Optional[int] = None,
) -> List[SeedSummary]:
    """Run one rollout per seed, in parallel, and return the summaries.

    ``processes=1`` (or a single seed) runs inline — handy under pytest
    and on machines where fork is restricted.
    """
    jobs = [(seed, population) for seed in seeds]
    if processes == 1 or len(jobs) == 1:
        return [_run_one(job) for job in jobs]
    with Pool(processes=processes) as pool:
        return pool.map(_run_one, jobs)


def aggregate(summaries: Sequence[SeedSummary]) -> Dict[str, Dict[str, float]]:
    """mean/min/max per statistic across seeds (a rank's min and max stay
    integers)."""
    if not summaries:
        return {}
    fields = [
        name
        for name, value in asdict(summaries[0]).items()
        if name not in ("seed", "population") and isinstance(value, (int, float))
    ]
    out: Dict[str, Dict[str, float]] = {}
    for name in fields:
        values = [getattr(s, name) for s in summaries]
        out[name] = {
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
        }
    return out
