"""FaultPlan: a named, ordered schedule of faults plus its pass bar.

A plan is pure data — the same plan object drives the engine, the CLI and
the invariant suite.  ``availability_floor`` is part of the plan because
the right bar depends on the faults: a deterministic partition that leaves
one RADIUS server healthy must still clear 99% (the headline invariant),
while a heavy probabilistic loss burst is allowed a slightly lower floor.

``shipped_plans()`` is the fault half of the scenario catalogue the tests
and ``python -m repro scenario`` run; every shipped plan keeps at least one
of the default RADIUS farm's servers (``10.0.0.{10,11,12}:1812``) free of
deterministic blocking, so the availability invariant is always meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chaos.faults import (
    BatchBackfill,
    ClockSkew,
    Fault,
    LatencyFault,
    LossBurst,
    Partition,
    ResolverOutage,
    ServerFlap,
    ShardCrash,
    SlowShard,
    SMSBrownout,
)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible chaos scenario."""

    name: str
    description: str
    faults: Tuple[Fault, ...] = ()
    availability_floor: float = 0.99

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("plan needs a name")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError(
                f"availability floor must be in [0, 1], got {self.availability_floor}"
            )

    def active(self, t: float) -> List[Fault]:
        """Faults in effect at plan-relative time ``t``, in plan order."""
        return [f for f in self.faults if f.active_at(t)]

    @property
    def horizon(self) -> float:
        """When the last fault window closes (0 for a fault-free plan)."""
        return max((f.end for f in self.faults), default=0.0)


#: Default workload: 120 logins spaced 17 s apart — 2040 s of simulated
#: time.  The shipped windows below are placed inside that span.
def shipped_plans() -> Dict[str, FaultPlan]:
    """The catalogue of scenarios the invariant suite must survive."""
    plans = [
        FaultPlan(
            "baseline",
            "no faults: the control run every invariant must trivially pass",
        ),
        FaultPlan(
            "loss-burst",
            "two windows of 15-20% datagram loss across the whole fabric",
            (
                LossBurst(start=300, duration=200, loss_rate=0.2),
                LossBurst(start=1200, duration=150, loss_rate=0.15),
            ),
            availability_floor=0.97,
        ),
        FaultPlan(
            "latency",
            "RADIUS farm answers slowly for ten minutes",
            (LatencyFault(start=200, duration=600, delay=0.4, target="10.0.0."),),
        ),
        FaultPlan(
            "partition",
            "two of three RADIUS servers unreachable for five minutes",
            (
                Partition(
                    start=400,
                    duration=300,
                    targets=("10.0.0.10:1812", "10.0.0.11:1812"),
                ),
            ),
        ),
        FaultPlan(
            "flapping",
            "two RADIUS servers reboot-looping on offset schedules",
            (
                ServerFlap(
                    start=100, duration=900, target="10.0.0.10:1812",
                    period=120, downtime=60,
                ),
                ServerFlap(
                    start=160, duration=900, target="10.0.0.11:1812",
                    period=120, downtime=60,
                ),
            ),
        ),
        FaultPlan(
            "slow-shard",
            "one storage shard's volume degrades for the whole run",
            (SlowShard(start=0, duration=2040, shard=0, latency=0.002),),
        ),
        FaultPlan(
            "kill-a-shard",
            "shard 0's primary crashes mid-run: a replica is promoted with "
            "zero lost writes, and the node rejoins by log replay",
            (ShardCrash(start=400, duration=800, shard=0),),
        ),
        FaultPlan(
            "resync-storm",
            "a 10k-item batch resync backfill dumps into the ingestion "
            "queue mid-run: it must fully drain before the window closes "
            "while interactive login latency stays flat",
            (BatchBackfill(start=200, duration=1500, items=10_000),),
        ),
        FaultPlan(
            "resolver-outage",
            "the primary (LDAP) identity resolver goes dark for ten "
            "minutes mid-run: the chain must fail every lookup over to "
            "the directory resolver with no login impact, then recover",
            (ResolverOutage(start=300, duration=600, resolver="ldap"),),
        ),
        FaultPlan(
            "sms-brownout",
            "the SMS carrier stalls most messages for twenty minutes",
            (SMSBrownout(start=0, duration=1200, stall_probability=0.9),),
        ),
        FaultPlan(
            "clock-skew",
            "every soft-token device drifts 75 s from the server",
            (ClockSkew(start=0, duration=2040, skew=75.0),),
        ),
        FaultPlan(
            "kitchen-sink",
            "loss burst + slow RADIUS + one server partitioned + slow shard "
            "+ device drift, overlapping",
            (
                LossBurst(start=250, duration=150, loss_rate=0.15),
                LatencyFault(start=500, duration=400, delay=0.3, target="10.0.0."),
                Partition(start=700, duration=300, targets=("10.0.0.11:1812",)),
                SlowShard(start=900, duration=600, shard=0, latency=0.002),
                ClockSkew(start=1100, duration=700, skew=60.0),
            ),
            availability_floor=0.95,
        ),
    ]
    return {plan.name: plan for plan in plans}
