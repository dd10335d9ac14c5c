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

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import FaultPlan
from repro.common.clock import VirtualClock
from repro.common.resilience import FailoverPolicy
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ingest import IngestConfig, PriorityClass
from repro.resolvers import ResolverConfig
from repro.simcore import EventLog, EventScheduler
from repro.ssh import SSHClient
from repro.storage import StorageConfig

#: Every chaos run starts at the same instant as the repo's other
#: deterministic scenarios (the week of the paper's production rollout).
EPOCH = "2016-10-05T09:00:00"

#: The legitimate login train: ``USERS`` soft-token users round-robin,
#: one login every ``STEP_SECONDS``.  4 users x 17 s spaces one user's
#: logins 68 s apart — always a fresh TOTP step, so replay protection never
#: rejects an honest login.
USERS = 4
STEP_SECONDS = 17.0
#: Every Nth login deliberately presents a wrong code (the false-accept probe).
WRONG_EVERY = 9
#: Per-authenticate simulated-time budget for the RADIUS client.
DEADLINE_BUDGET = 8.0
INGEST_DEPTH = 16384
#: Simulated seconds of service time charged per queued item, so queue
#: wait and login latency are measurable in virtual time.
QUEUE_SERVICE_COST = 0.0005
#: Distinct static-code accounts a backfill cycles through.  Static tokens
#: have no replay nullification, so re-validating the same code thousands
#: of times cannot trip failcounts or lockouts (which would corrupt the
#: availability invariant with self-inflicted denials).
BACKFILL_USERS = 16
#: The adversarial workload: decoy accounts planted, attempts made, their
#: spacing, and where the attacker operates from (the watchlisted network).
HONEYTOKENS = 2
ATTACKER_ATTEMPTS = 12
ATTACKER_STEP_SECONDS = 23.0
ATTACKER_IP = "203.0.113.66"
ATTACKER_SUBNET = "203.0.113.0/24"


@dataclass(frozen=True)
class WorkloadConfig:
    """The workload driven under the fault plan — never the deployment's
    shape, which is one for every plan (see :func:`run_chaos`)."""

    seed: int = 101
    logins: int = 120
    #: Run an attacker alongside the legitimate workload: the attacker's
    #: network is watchlisted, ``HONEYTOKENS`` decoy accounts are planted,
    #: and an SSH attacker alternates correct-code decoy logins with
    #: wrong-code stuffing of the legitimate users.
    adversarial: bool = False
    #: The pump a backfill window schedules: ``pump_items / pump_interval``
    #: items per simulated second (defaults: 160/s — a 10k backfill drains
    #: in ~63 s).
    pump_interval: float = 0.25
    pump_items: int = 40

    def __post_init__(self) -> None:
        if self.logins < 1:
            raise ValueError("need at least one login")
        if self.pump_interval <= 0 or self.pump_items < 1:
            raise ValueError("need pump_interval > 0 and pump_items >= 1")


@dataclass(frozen=True)
class AttemptRecord:
    """One login attempt's outcome."""

    index: int
    username: str
    expect_success: bool  # False for the deliberate wrong-code probes
    healthy: bool  # >= 1 RADIUS server free of deterministic blocking
    success: bool
    reasons: Tuple[str, ...]  # user-visible messages beyond the banner
    #: Simulated seconds the login took end to end.
    latency: float = 0.0


@dataclass
class ChaosReport:
    """Everything one chaos run produced, plus the invariant verdicts."""

    plan: FaultPlan
    config: WorkloadConfig
    #: The engine's event log; the run appends to it, the verdicts read it.
    log: EventLog
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def event_lines(self) -> List[str]:
        """The canonical rendering, one event per line."""
        return self.log.lines()

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
        for event in self.log.events:
            if event["kind"] in ("shard_crash", "shard_rejoin"):
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
        for event in self.log.events:
            if event["kind"] == "backfill_drain" and event.get("remaining", 0):
                out.append(
                    f"backfill window closed at t={event.get('t')} with "
                    f"{event['remaining']} item(s) still queued"
                )
        return out

    def attacker_events(self) -> List[dict]:
        """Every ``attacker_attempt`` event (empty for non-adversarial runs)."""
        return [e for e in self.log.events if e["kind"] == "attacker_attempt"]

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
        return self.log.digest()

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
            "events": len(self.log),
            "digest": self.digest(),
            "violations": self.invariant_violations(),
        }


def wrong_code(code: str) -> str:
    """A six-digit code guaranteed different from ``code``."""
    return f"{(int(code) + 1) % 1000000:06d}"


def run_chaos(
    plan: FaultPlan, config: WorkloadConfig = WorkloadConfig()
) -> ChaosReport:
    """Execute one seeded chaos run and return its report.

    Every plan, adversarial or not, meets the same deployment — the
    production shape ``python -m repro status`` and loginbench's back-end
    rig run: sharded and replicated storage, the ingest queue, the risk
    stage, the LDAP-first resolver chain, telemetry.  The plan and the
    config choose what happens *to* it, never what it is made of.
    """
    clock = VirtualClock.at(EPOCH)
    center = MFACenter(
        clock=clock,
        rng=random.Random(config.seed),
        telemetry=True,
        storage=StorageConfig(shards=2, replicas=2),
        radius_policy=FailoverPolicy(deadline_budget=DEADLINE_BUDGET),
        radius_wait_clock=clock,
        ingest=IngestConfig(
            max_depth=INGEST_DEPTH, service_cost_seconds=QUEUE_SERVICE_COST
        ),
        risk=True,
        resolvers=ResolverConfig(use_ldap=True),
    )
    system = center.add_system("chaos-rig", login_nodes=1)
    node = system.login_node()
    users: List[str] = []
    devices: Dict[str, TOTPGenerator] = {}
    for i in range(USERS):
        username = f"chaos{i + 1}"
        center.create_user(username, password=f"pw-{username}")
        _, secret = center.pair_soft(username)
        users.append(username)
        devices[username] = TOTPGenerator(secret=secret, clock=clock)
    resync_creds: List[Tuple[str, str]] = []
    for i in range(BACKFILL_USERS):
        username = f"resync{i + 1}"
        center.create_user(username, password=f"pw-{username}")
        resync_creds.append((username, center.pair_training(username)))

    # Everything is events on one heap: fault-window boundary ticks first
    # (exact activation instants, no polling drift), then the login train
    # at fixed offsets — same-instant ties resolve tick-before-login by
    # scheduling order.  A login that burns simulated time (retransmits,
    # latency faults) pushes the clock forward; later logins whose slots
    # already passed fire immediately, still in order.
    scheduler = EventScheduler(clock=clock, seed=config.seed)

    def backfill(items: int):
        """Dump a batch-class storm and start the pump that drains it.

        Synchronous validates are caller-runs and need no pump; deferred
        work does, so the backfill window schedules one (and the engine
        cancels the returned handle when the window closes).
        """
        center.ingest_queue.submit_many(
            [resync_creds[i % len(resync_creds)] for i in range(items)],
            priority=PriorityClass.BATCH,
        )
        return center.ingest_queue.attach(
            scheduler,
            interval=config.pump_interval,
            items_per_pump=config.pump_items,
        )

    engine = ChaosEngine(
        plan,
        clock,
        config.seed,
        fabric=center.fabric,
        sms_gateway=center.sms_gateway,
        storage=center.otp.db.engine,
        devices=devices,
        ingest=center.ingest_queue,
        backfill=backfill,
        resolvers=center.resolver_chain,
    )
    # A digest names its run: two seeds of a plan with no probabilistic
    # fault would otherwise log identical events.
    engine.record("run", plan=plan.name, seed=config.seed, logins=config.logins)
    # The adversarial workload: watchlist the attacker's network, plant
    # decoy accounts whose full credentials (password *and* seed) sit in
    # the dump the attacker bought, and let the attacker run alongside
    # the legitimate login train.
    decoys: List[Tuple[str, TOTPGenerator]] = []
    if config.adversarial:
        center.risk_stage.add_watchlist(ATTACKER_SUBNET)
        for i in range(HONEYTOKENS):
            username = f"decoy{i + 1}"
            center.create_user(username, password=f"pw-{username}")
            _, secret = center.pair_honeytoken(username)
            decoys.append((username, TOTPGenerator(secret=secret, clock=clock)))

    client = SSHClient(source_ip="198.51.100.9")
    farm = [server.address for server in center.radius_servers]
    report = ChaosReport(plan=plan, config=config, log=engine.log)

    def _login(index: int) -> None:
        username = users[index % len(users)]
        device = devices[username]
        expect_success = index % WRONG_EVERY != WRONG_EVERY - 1
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

    attacker = SSHClient(source_ip=ATTACKER_IP)

    def _attacker_attempt(k: int) -> None:
        # Odd attempts spend the stolen decoy credentials (correct code —
        # indistinguishability is the decoy's job); even attempts stuff a
        # legitimate account's compromised password with a guessed code.
        decoy = k % 2 == 1
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

    engine.schedule_ticks(scheduler)
    base = clock.now()
    for index in range(config.logins):
        scheduler.schedule_at(base + index * STEP_SECONDS, _login, index)
    if config.adversarial:
        # Offset so attacker attempts interleave with (never tie against)
        # the legitimate train's slots.
        for k in range(ATTACKER_ATTEMPTS):
            scheduler.schedule_at(
                base + 5.0 + k * ATTACKER_STEP_SECONDS, _attacker_attempt, k
            )
    try:
        scheduler.run_until(base + config.logins * STEP_SECONDS)
        engine.tick()  # close any windows that ended exactly at the horizon
    finally:
        engine.detach()
    return report
