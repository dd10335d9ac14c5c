"""Run a whole login workload under a fault plan and judge the invariants.

This is the harness behind ``tests/chaos`` and ``python -m repro chaos``:
build a fresh deployment at a fixed simulated instant, enroll a small
population of soft-token users, attach a :class:`ChaosEngine`, and drive
interactive SSH logins through the full stack (sshd → PAM → RADIUS →
LinOTP → storage) while the plan's faults fire.  Everything — the
deployment RNG, the fault RNGs, the clock — derives from one seed, so a
run is a pure function of ``(plan, config)`` and the report's event-log
digest is byte-identical across reruns.

The four invariants every plan must satisfy (the headline deliverable):

a. **No false accepts** — a login with a wrong token code never succeeds,
   no matter what the network does.
b. **Availability floor** — while at least one RADIUS server is free of
   deterministic blocking, correct-code logins succeed at or above the
   plan's ``availability_floor``.
c. **No silent denials** — every denied login showed the user at least
   one message beyond the login banner.
d. **Determinism** — identical seeds yield identical event logs (checked
   by comparing :meth:`ChaosReport.digest` across runs).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.faults import BatchBackfill, ShardCrash
from repro.chaos.plan import FaultPlan
from repro.common.clock import SimulatedClock
from repro.common.resilience import FailoverPolicy
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.resolvers import ResolverConfig
from repro.simcore import EventScheduler
from repro.ssh import SSHClient
from repro.storage import StorageConfig

#: Every chaos run starts at the same instant as the repo's other
#: deterministic scenarios (the week of the paper's production rollout).
EPOCH = "2016-10-05T09:00:00"


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the login workload driven under the fault plan."""

    seed: int = 101
    logins: int = 120
    users: int = 4
    #: Seconds between logins.  With 4 users round-robin this spaces one
    #: user's logins 68 s apart — always a fresh TOTP step, so replay
    #: protection never rejects an honest login.
    step_seconds: float = 17.0
    #: Every Nth login deliberately presents a wrong code (the false-accept
    #: probe); 0 disables.
    wrong_every: int = 9
    #: Per-authenticate simulated-time budget for the RADIUS client.
    deadline_budget: float = 8.0
    shards: int = 2
    #: Log-shipping replicas per shard (0 = none).  A plan containing a
    #: :class:`~repro.chaos.faults.ShardCrash` needs at least one; the
    #: runner upgrades a default (0-replica) config to 2 automatically so
    #: the shipped kill-a-shard plan runs out of the box while every other
    #: plan keeps its historical storage stack (and event-log digest).
    replicas: int = 0
    #: Write-ahead logging without replication (implied by replicas > 0).
    durability: bool = False
    #: Route every RADIUS validation through the priority ingestion queue
    #: (:mod:`repro.ingest`).  A plan containing a
    #: :class:`~repro.chaos.faults.BatchBackfill` needs the queue; the
    #: runner enables it automatically so the shipped resync-storm plan
    #: runs out of the box while every other plan keeps its historical
    #: direct path (and event-log digest).
    ingest: bool = False
    ingest_depth: int = 16384
    #: Scheduled queue pump: ``pump_items / pump_interval`` items per
    #: simulated second (defaults: 160/s — a 10k backfill drains in ~63 s).
    pump_interval: float = 0.25
    pump_items: int = 40
    #: Simulated seconds of service time charged per queued item, so queue
    #: wait and login latency are measurable in virtual time.
    queue_service_cost: float = 0.0005
    #: Distinct static-code accounts a backfill cycles through.  Static
    #: tokens have no replay nullification, so re-validating the same code
    #: thousands of times cannot trip failcounts or lockouts.
    backfill_users: int = 16
    #: Run an attacker alongside the legitimate workload: the deployment
    #: gets a shared risk stage with the attacker's network watchlisted,
    #: ``honeytokens`` decoy accounts are planted, and an SSH attacker
    #: alternates correct-code decoy logins with wrong-code stuffing of
    #: the legitimate users.  Off by default so every historical plan
    #: keeps its event-log digest.
    adversarial: bool = False
    honeytokens: int = 2
    attacker_attempts: int = 12
    attacker_step_seconds: float = 23.0
    attacker_ip: str = "203.0.113.66"
    attacker_subnet: str = "203.0.113.0/24"

    def __post_init__(self) -> None:
        if self.logins < 1 or self.users < 1:
            raise ValueError("need at least one login and one user")
        if self.step_seconds <= 0:
            raise ValueError("step must be positive")
        if self.wrong_every < 0:
            raise ValueError("wrong_every must be >= 0")
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.ingest_depth < 1 or self.backfill_users < 1:
            raise ValueError("ingest_depth and backfill_users must be >= 1")
        if self.pump_interval <= 0 or self.pump_items < 1:
            raise ValueError("need pump_interval > 0 and pump_items >= 1")
        if self.queue_service_cost < 0:
            raise ValueError("queue_service_cost must be >= 0")
        if self.honeytokens < 0 or self.attacker_attempts < 0:
            raise ValueError("honeytokens and attacker_attempts must be >= 0")
        if self.attacker_step_seconds <= 0:
            raise ValueError("attacker_step_seconds must be positive")


@dataclass(frozen=True)
class AttemptRecord:
    """One login attempt's outcome."""

    index: int
    username: str
    expect_success: bool  # False for the deliberate wrong-code probes
    healthy: bool  # >= 1 RADIUS server free of deterministic blocking
    success: bool
    reasons: Tuple[str, ...]  # user-visible messages beyond the banner
    #: Simulated seconds the login took end to end.  Kept out of the
    #: event log so pre-ingest plans keep their historical digests.
    latency: float = 0.0


@dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the invariant verdicts."""

    plan: FaultPlan
    config: WorkloadConfig
    attempts: List[AttemptRecord] = field(default_factory=list)
    event_lines: List[str] = field(default_factory=list)

    # -- aggregates ---------------------------------------------------------

    @property
    def successes(self) -> int:
        return sum(1 for a in self.attempts if a.success)

    @property
    def failures(self) -> int:
        return len(self.attempts) - self.successes

    def false_accepts(self) -> List[AttemptRecord]:
        return [a for a in self.attempts if a.success and not a.expect_success]

    def reasonless_denials(self) -> List[AttemptRecord]:
        return [a for a in self.attempts if not a.success and not a.reasons]

    def storage_violations(self) -> List[str]:
        """Promotions or rejoins that lost state (digest mismatch).

        A ``shard_crash`` event's digest compares the dead primary against
        its promoted replica; a ``shard_rejoin`` event's compares the
        replayed node against the live primary.  Either differing means a
        committed pairing or lockout write did not survive the failure.
        """
        out = []
        for line in self.event_lines:
            event = json.loads(line)
            if event.get("kind") in ("shard_crash", "shard_rejoin"):
                if not event.get("digest_match", True):
                    out.append(
                        f"{event['kind']} on shard {event.get('shard')} at "
                        f"t={event.get('t')} lost state (digest mismatch)"
                    )
        return out

    def backfill_violations(self) -> List[str]:
        """Backfill windows that closed without fully draining.

        The SLA contract is two-sided: interactive latency stays flat
        *and* the batch work actually completes.  A ``backfill_drain``
        event with items remaining means the queue (or its pump rate)
        could not absorb the storm inside the window.
        """
        out = []
        for line in self.event_lines:
            event = json.loads(line)
            if event.get("kind") == "backfill_drain" and event.get("remaining", 0):
                out.append(
                    f"backfill window closed at t={event.get('t')} with "
                    f"{event['remaining']} item(s) still queued"
                )
        return out

    def attacker_events(self) -> List[dict]:
        """Every ``attacker_attempt`` event (empty for non-adversarial runs)."""
        return [
            event
            for event in (json.loads(line) for line in self.event_lines)
            if event.get("kind") == "attacker_attempt"
        ]

    def adversarial_violations(self) -> List[str]:
        """The two adversarial invariants, judged per attacker attempt:

        e. **No honeytoken use goes unalarmed** — every decoy login the
           attacker drove through the stack raised a honeytoken alarm,
           whatever the network was doing at the time.
        f. **No attacker success goes unflagged** — any attacker attempt
           that got in left a non-ALLOW entry in the risk stage's flag
           log for that account.
        """
        out = []
        for event in self.attacker_events():
            where = f"t={event.get('t')} (user {event.get('user')})"
            if event.get("decoy") and not event.get("alarmed"):
                out.append(f"honeytoken use at {where} raised no alarm")
            if event.get("ok") and not event.get("flagged"):
                out.append(f"attacker success at {where} left no risk flag")
        return out

    def availability(self) -> float:
        """Success rate over honest logins attempted while >= 1 server
        was free of deterministic blocking."""
        eligible = [a for a in self.attempts if a.expect_success and a.healthy]
        if not eligible:
            return 1.0
        return sum(1 for a in eligible if a.success) / len(eligible)

    def interactive_latencies(self) -> List[float]:
        """Honest interactive logins' end-to-end simulated latencies."""
        return [a.latency for a in self.attempts if a.expect_success]

    def interactive_p99(self) -> float:
        """The p99 of honest interactive login latency (simulated seconds)."""
        samples = sorted(self.interactive_latencies())
        if not samples:
            return 0.0
        index = max(0, int(len(samples) * 0.99 + 0.5) - 1)
        return samples[min(index, len(samples) - 1)]

    def digest(self) -> str:
        """SHA-256 of the canonical event log — the determinism witness."""
        joined = "\n".join(self.event_lines).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    # -- the invariants -----------------------------------------------------

    def invariant_violations(self) -> List[str]:
        violations = []
        accepted = self.false_accepts()
        if accepted:
            violations.append(
                f"{len(accepted)} wrong-code login(s) were accepted: "
                f"{[a.index for a in accepted]}"
            )
        floor = self.plan.availability_floor
        availability = self.availability()
        if availability < floor:
            violations.append(
                f"availability {availability:.4f} below floor {floor:.4f}"
            )
        silent = self.reasonless_denials()
        if silent:
            violations.append(
                f"{len(silent)} denial(s) showed the user no reason: "
                f"{[a.index for a in silent]}"
            )
        violations.extend(self.storage_violations())
        violations.extend(self.backfill_violations())
        violations.extend(self.adversarial_violations())
        return violations

    def summary(self) -> dict:
        return {
            "plan": self.plan.name,
            "seed": self.config.seed,
            "attempts": len(self.attempts),
            "successes": self.successes,
            "failures": self.failures,
            "availability": round(self.availability(), 4),
            "availability_floor": self.plan.availability_floor,
            "false_accepts": len(self.false_accepts()),
            "reasonless_denials": len(self.reasonless_denials()),
            "storage_violations": len(self.storage_violations()),
            "backfill_violations": len(self.backfill_violations()),
            "attacker_attempts": len(self.attacker_events()),
            "adversarial_violations": len(self.adversarial_violations()),
            "interactive_p99_seconds": round(self.interactive_p99(), 6),
            "events": len(self.event_lines),
            "digest": self.digest(),
            "violations": self.invariant_violations(),
        }


def wrong_code(code: str) -> str:
    """A six-digit code guaranteed different from ``code``."""
    return f"{(int(code) + 1) % 1000000:06d}"


def run_chaos(
    plan: FaultPlan, config: Optional[WorkloadConfig] = None
) -> ChaosReport:
    """Execute one seeded chaos run and return its report."""
    config = config or WorkloadConfig()
    clock = SimulatedClock.at(EPOCH)
    replicas = config.replicas
    if replicas == 0 and any(isinstance(f, ShardCrash) for f in plan.faults):
        # A shard-crash plan needs something to promote; give the default
        # workload a replicated stack without touching any other plan's.
        replicas = 2
    # A backfill plan needs the admission queue; enable it automatically so
    # resync-storm runs out of the box while every other plan keeps its
    # historical direct validate path (and event-log digest).
    use_ingest = config.ingest or any(
        isinstance(f, BatchBackfill) for f in plan.faults
    )
    ingest_config = None
    if use_ingest:
        from repro.ingest import IngestConfig

        ingest_config = IngestConfig(
            max_depth=config.ingest_depth,
            service_cost_seconds=config.queue_service_cost,
        )
    center = MFACenter(
        clock=clock,
        rng=random.Random(config.seed),
        telemetry=True,
        storage=StorageConfig(
            shards=config.shards,
            durability=config.durability,
            replicas=replicas,
        ),
        radius_policy=FailoverPolicy(deadline_budget=config.deadline_budget),
        radius_wait_clock=clock,
        ingest=ingest_config,
        risk=config.adversarial or None,
        # LDAP primary, directory fallback: the shape a resolver-outage
        # fault needs, and the one identity path every plan runs.
        resolvers=ResolverConfig(use_ldap=True),
    )
    system = center.add_system("chaos-rig", login_nodes=1)
    node = system.login_node()
    users: List[str] = []
    devices: Dict[str, TOTPGenerator] = {}
    for i in range(config.users):
        username = f"chaos{i + 1}"
        center.create_user(username, password=f"pw-{username}")
        _, secret = center.pair_soft(username)
        users.append(username)
        devices[username] = TOTPGenerator(secret=secret, clock=clock)
    backfill = None
    if use_ingest:
        from repro.ingest import PriorityClass

        # Static-code accounts for the backfill: static tokens have no
        # replay nullification, so the same code can validate thousands of
        # times without tripping failcounts (which would corrupt the
        # lockout/availability invariants with self-inflicted denials).
        resync_creds: List[Tuple[str, str]] = []
        for i in range(config.backfill_users):
            username = f"resync{i + 1}"
            center.create_user(username, password=f"pw-{username}")
            code = center.pair_training(username)
            resync_creds.append((username, code))

        def backfill(items: int) -> None:
            requests = [
                resync_creds[i % len(resync_creds)] for i in range(items)
            ]
            center.ingest_queue.submit_many(requests, priority=PriorityClass.BATCH)

    engine = ChaosEngine(
        plan,
        clock,
        config.seed,
        fabric=center.fabric,
        sms_gateway=center.sms_gateway,
        storage=center.otp.db.engine,
        devices=devices,
        telemetry=center.telemetry,
        ingest=center.ingest_queue,
        backfill=backfill,
        resolvers=center.resolver_chain,
    )
    # The adversarial workload: watchlist the attacker's network, plant
    # decoy accounts whose full credentials (password *and* seed) sit in
    # the dump the attacker bought, and let the attacker run alongside
    # the legitimate login train.
    decoys: List[Tuple[str, TOTPGenerator]] = []
    if config.adversarial:
        center.risk_stage.add_watchlist(config.attacker_subnet)
        for i in range(config.honeytokens):
            username = f"decoy{i + 1}"
            center.create_user(username, password=f"pw-{username}")
            _, secret = center.pair_honeytoken(username)
            decoys.append((username, TOTPGenerator(secret=secret, clock=clock)))

    client = SSHClient(source_ip="198.51.100.9")
    farm = [server.address for server in center.radius_servers]
    report = ChaosReport(plan=plan, config=config)

    def _login(index: int) -> None:
        username = users[index % len(users)]
        device = devices[username]
        expect_success = not (
            config.wrong_every
            and index % config.wrong_every == config.wrong_every - 1
        )
        token = (
            device.current_code
            if expect_success
            else (lambda d=device: wrong_code(d.current_code()))
        )
        healthy = any(
            not center.fabric.is_down(a) and not engine.impaired(a) for a in farm
        )
        started = clock.now()
        result, conversation = client.connect(
            node, username, password=f"pw-{username}", token=token
        )
        latency = clock.now() - started
        reasons = tuple(
            line for line in conversation.displayed if line != node.banner
        )
        engine.record(
            "attempt",
            index=index,
            user=username,
            expect=expect_success,
            healthy=healthy,
            ok=result.success,
        )
        report.attempts.append(
            AttemptRecord(
                index,
                username,
                expect_success,
                healthy,
                result.success,
                reasons,
                latency=latency,
            )
        )

    attacker = SSHClient(source_ip=config.attacker_ip)

    def _attacker_attempt(k: int) -> None:
        # Odd attempts spend the stolen decoy credentials (correct code —
        # indistinguishability is the decoy's job); even attempts stuff a
        # legitimate account's compromised password with a guessed code.
        decoy = bool(decoys) and k % 2 == 1
        if decoy:
            username, device = decoys[(k // 2) % len(decoys)]
            token = device.current_code
        else:
            username = users[k % len(users)]
            device = devices[username]
            token = lambda d=device: wrong_code(d.current_code())
        stage = center.risk_stage
        flags_before = stage.flags_for(username)
        alarms_before = len(center.otp.honeytoken_alarms)
        result, _ = attacker.connect(
            node, username, password=f"pw-{username}", token=token
        )
        engine.record(
            "attacker_attempt",
            index=k,
            user=username,
            decoy=decoy,
            ok=result.success,
            flagged=stage.flags_for(username) > flags_before,
            alarmed=len(center.otp.honeytoken_alarms) > alarms_before,
        )

    # Everything is events on one heap: fault-window boundary ticks first
    # (exact activation instants, no polling drift), then the login train
    # at fixed offsets — same-instant ties resolve tick-before-login by
    # scheduling order.  A login that burns simulated time (retransmits,
    # latency faults) pushes the clock forward; later logins whose slots
    # already passed fire immediately, still in order.
    scheduler = EventScheduler(clock=clock, seed=config.seed)
    engine.schedule_ticks(scheduler)
    base = clock.now()
    pump_handle = None
    if use_ingest:
        # The queue's virtual-time drive: a repeating pump event draining
        # at pump_items / pump_interval items per simulated second.
        pump_handle = center.ingest_queue.attach(
            scheduler,
            interval=config.pump_interval,
            items_per_pump=config.pump_items,
        )
    for index in range(config.logins):
        scheduler.schedule_at(base + index * config.step_seconds, _login, index)
    if config.adversarial:
        # Offset so attacker attempts interleave with (never tie against)
        # the legitimate train's slots.
        for k in range(config.attacker_attempts):
            scheduler.schedule_at(
                base + 5.0 + k * config.attacker_step_seconds, _attacker_attempt, k
            )
    try:
        scheduler.run_until(base + config.logins * config.step_seconds)
        engine.tick()  # close any windows that ended exactly at the horizon
    finally:
        if pump_handle is not None:
            pump_handle.cancel()
        engine.detach()
    report.event_lines = engine.event_log_lines()
    return report
