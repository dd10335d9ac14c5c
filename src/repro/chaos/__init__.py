"""The adversarial harness: seeded scenarios against the MFA deployment.

The paper's infrastructure earns its keep precisely when things go wrong —
lossy networks, rebooting RADIUS servers, stalled SMS carriers, drifted
device clocks — and when someone attacks it.  This package makes both a
reproducible input.  A scenario is one of two kinds of pure data:

* a :class:`FaultPlan` schedules faults on a simulated timeline; a
  :class:`ChaosEngine` applies them to a live deployment while the runner
  drives honest SSH logins, and an attacker beside them, through the full
  stack (:mod:`repro.chaos.runner`);
* a :class:`Campaign` names an attacker behaviour that a population of
  compromised accounts meets on the real validate path
  (:mod:`repro.chaos.campaigns`).

Both runners write the same rows into one event log, and one
:class:`Report` judges them (:mod:`repro.chaos.report`).  Everything
derives from one seed, so a failing run replays exactly:

    from repro.chaos import run
    report = run("partition", seed=101)
    assert report.violations() == []
"""

from typing import Dict, Union

from repro.chaos.campaigns import CAMPAIGNS, AttackSimulation, Campaign
from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import (
    BatchBackfill,
    ClockSkew,
    Fault,
    LatencyFault,
    LossBurst,
    Partition,
    ServerFlap,
    ShardCrash,
    SlowShard,
    SMSBrownout,
)
from repro.chaos.plan import FaultPlan, shipped_plans
from repro.chaos.report import Report, judge
from repro.chaos.runner import run_plan

Scenario = Union[FaultPlan, Campaign]


def scenarios() -> Dict[str, Scenario]:
    """The catalogue, by name: the 12 fault plans, then the 5 campaigns."""
    return {**shipped_plans(), **{campaign.name: campaign for campaign in CAMPAIGNS}}


def run(scenario: Union[str, Scenario], seed: int = 101) -> Report:
    """Run one scenario — a catalogue name, or any plan or campaign."""
    if isinstance(scenario, str):
        catalogue = scenarios()
        if scenario not in catalogue:
            raise ValueError(
                f"unknown scenario {scenario!r}; expected one of {', '.join(catalogue)}"
            )
        scenario = catalogue[scenario]
    if isinstance(scenario, FaultPlan):
        return run_plan(scenario, seed)
    return AttackSimulation(scenario, seed).run()


__all__ = [
    "BatchBackfill",
    "Campaign",
    "ChaosEngine",
    "ClockSkew",
    "Fault",
    "FaultPlan",
    "LatencyFault",
    "LossBurst",
    "Partition",
    "Report",
    "Scenario",
    "ServerFlap",
    "ShardCrash",
    "SlowShard",
    "SMSBrownout",
    "judge",
    "run",
    "scenarios",
    "shipped_plans",
]
