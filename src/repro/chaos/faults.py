"""Fault primitives: the vocabulary of the FaultPlan DSL.

Each fault is a frozen value object describing one scheduled impairment in
*plan-relative* time — ``start`` seconds after the chaos run begins, for
``duration`` seconds.  The engine (:mod:`repro.chaos.engine`) interprets
them against the live deployment; the faults themselves hold no state, so
a plan can be rerun, shared between tests, and printed in a report.

The set mirrors what the paper's deployment actually suffered: lossy
campus networking, RADIUS servers rebooting mid-rollout, a slow LinOTP
database volume, SMS carriers sitting on messages ("an SMS text message
will arrive delayed ... in an expired state"), and phones whose clocks
had drifted from the LinOTP server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def matches(target: str, address: str) -> bool:
    """Prefix match for fault targeting; an empty target matches anything."""
    return address.startswith(target) if target else True


@dataclass(frozen=True)
class Fault:
    """Base schedule: active on ``[start, start + duration)``."""

    start: float
    duration: float

    kind = "fault"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(f"fault duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        """Is this fault in effect at plan-relative time ``t``?"""
        return self.start <= t < self.end


@dataclass(frozen=True)
class LossBurst(Fault):
    """A window of elevated probabilistic datagram loss.

    Draws come from the engine's per-fault RNG (seeded from the run seed),
    never the deployment RNG — so adding a burst to a plan does not shift
    any other seeded behaviour.
    """

    loss_rate: float = 0.2
    target: str = ""  # address prefix; "" = every datagram

    kind = "loss_burst"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in (0, 1], got {self.loss_rate}")


@dataclass(frozen=True)
class LatencyFault(Fault):
    """Extra per-datagram round-trip delay for matching destinations.

    The delay is charged to the simulated clock as a side effect of
    delivery, so login latency becomes measurable in simulated seconds.
    """

    delay: float = 0.25
    target: str = ""

    kind = "latency"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delay <= 0:
            raise ValueError(f"latency delay must be > 0, got {self.delay}")


@dataclass(frozen=True)
class Partition(Fault):
    """A deterministic network partition: matching traffic never arrives.

    A datagram is vetoed when its destination *or* source matches any
    target prefix, so a partition can isolate servers or whole client
    subnets.
    """

    targets: Tuple[str, ...] = ()

    kind = "partition"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.targets:
            raise ValueError("partition needs at least one target prefix")

    def blocks(self, address: str, source: str = "") -> bool:
        return any(
            matches(t, address) or (source and matches(t, source))
            for t in self.targets
        )


@dataclass(frozen=True)
class ServerFlap(Fault):
    """A server that keeps rebooting: down ``downtime`` out of every
    ``period`` seconds while the fault window is open."""

    target: str = ""
    period: float = 120.0
    downtime: float = 60.0

    kind = "flap"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.target:
            raise ValueError("flap needs a target address prefix")
        if self.period <= 0 or not 0 < self.downtime <= self.period:
            raise ValueError(
                f"flap needs 0 < downtime <= period, got "
                f"downtime={self.downtime} period={self.period}"
            )

    def down_at(self, t: float) -> bool:
        return self.active_at(t) and ((t - self.start) % self.period) < self.downtime


@dataclass(frozen=True)
class SlowShard(Fault):
    """One storage shard's backing volume degrades: every operation on it
    pays ``latency`` (real) seconds while the window is open."""

    shard: int = 0
    latency: float = 0.002

    kind = "slow_shard"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard < 0:
            raise ValueError(f"shard index must be >= 0, got {self.shard}")
        if self.latency <= 0:
            raise ValueError(f"shard latency must be > 0, got {self.latency}")


@dataclass(frozen=True)
class ShardCrash(Fault):
    """A storage shard's primary dies mid-run — a harder failure than
    :class:`SlowShard`'s degraded volume.

    At window open the primary is killed and the most caught-up replica is
    deterministically promoted; at window close the crashed node rejoins
    and rebuilds purely by log replay.  Requires a replicated storage
    stack (``StorageConfig(replicas=...)``), which the runner's rig is.
    """

    shard: int = 0

    kind = "shard_crash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard < 0:
            raise ValueError(f"shard index must be >= 0, got {self.shard}")


@dataclass(frozen=True)
class SMSBrownout(Fault):
    """The carrier brownout from Section 5: during the window most
    messages stall and land ``stall_delay`` seconds later — typically past
    the token code's validity."""

    stall_probability: float = 0.9
    stall_delay: float = 600.0
    base_delay: float = 30.0

    kind = "sms_brownout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.stall_probability <= 1.0:
            raise ValueError(
                f"stall probability must be in (0, 1], got {self.stall_probability}"
            )
        if self.stall_delay <= 0 or self.base_delay < 0:
            raise ValueError("brownout delays must be positive")


@dataclass(frozen=True)
class BatchBackfill(Fault):
    """A resync backfill storm: at window open, ``items`` batch-class
    validations are dumped into the deployment's ingestion queue at once
    (a job array re-pairing, a bulk token resync after a device recall).

    The fault is about *pressure*, not breakage: nothing is dropped or
    delayed directly.  The invariant it exists to test is SLA isolation —
    interactive logins must keep their latency while the backfill drains,
    and the backfill must fully drain before the window closes.  Requires
    an ingest-enabled deployment, which the runner's rig is; the window
    owns the scheduled pump that drains it (started at open, cancelled at
    close), so a plan with no backfill schedules none.
    """

    items: int = 10_000

    kind = "batch_backfill"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.items < 1:
            raise ValueError(f"backfill needs at least one item, got {self.items}")


@dataclass(frozen=True)
class ResolverOutage(Fault):
    """A named identity resolver goes dark: every lookup it is asked to
    serve raises until the window closes.

    Exists to prove the resolver chain's failover contract — logins must
    keep succeeding through the remaining resolvers (zero invariant
    violations) while the downed resolver's EWMA score is demoted, and
    must recover once the window closes.  ``resolver`` names a resolver
    on the deployment's chain with an outage knob; the runner's rig
    registers ``"ldap"`` ahead of the directory.
    """

    resolver: str = ""

    kind = "resolver_outage"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.resolver:
            raise ValueError("resolver outage needs a resolver name")


@dataclass(frozen=True)
class ClockSkew(Fault):
    """A device clock drifts by ``skew`` seconds relative to the server.

    Applied to every enrolled soft-token device, or just ``user``'s when
    set.  Skews inside the validator's drift window should still log in
    (the server learns the offset); larger ones model the paper's
    "expired state" deliveries.
    """

    skew: float = 75.0
    user: str = ""  # "" = every device

    kind = "clock_skew"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.skew == 0:
            raise ValueError("a zero skew is not a fault")
