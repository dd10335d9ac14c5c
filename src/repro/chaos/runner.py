"""Drive the honest SSH login train, and an attacker beside it, under a
fault plan.

This is the fault-plan runner behind :func:`repro.chaos.run`: build a
fresh deployment at a fixed simulated instant, enroll a small population
of soft-token users and two honeytoken decoys, attach a
:class:`ChaosEngine`, and drive interactive SSH logins through the full
stack (sshd → PAM → RADIUS → LinOTP → storage) while the plan's faults
fire and an attacker on the watchlisted network plays the decoys' stolen
credentials and stuffs the real accounts.  Everything — the deployment
RNG, the fault RNGs, the clock — derives from one seed, so a run is a pure
function of ``(plan, seed)`` and its event-log digest is byte-identical
across reruns.  The rows it logs are judged by
:func:`repro.chaos.report.judge`, like a campaign's.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.chaos.engine import ChaosEngine
from repro.chaos.plan import FaultPlan
from repro.chaos.report import EPOCH, WATCHLIST, Report
from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ingest import IngestConfig, PriorityClass
from repro.resolvers import ResolverConfig
from repro.simcore import EventScheduler
from repro.ssh import SSHClient
from repro.storage import StorageConfig

#: The legitimate login train: ``LOGINS`` logins by ``USERS`` soft-token
#: users round-robin, one every ``STEP_SECONDS``.  4 users x 17 s spaces
#: one user's logins 68 s apart — always a fresh TOTP step, so replay
#: protection never rejects an honest login.
LOGINS = 120
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
#: The pump a backfill window schedules: ``PUMP_ITEMS / PUMP_INTERVAL``
#: items per simulated second (160/s — a 10k backfill drains in ~63 s).
PUMP_INTERVAL = 0.25
PUMP_ITEMS = 40
#: The attacker: decoy accounts planted, attempts made (spread evenly over
#: the whole train, so every fault window of a shipped plan meets one), and
#: the address it operates from, inside :data:`WATCHLIST`.
HONEYTOKENS = 2
ATTACKER_ATTEMPTS = 12
ATTACKER_IP = "203.0.113.66"
#: What an SSH client is told, mapped to the defence that refused it (the
#: campaigns' ``blocked_by`` names); any other refusal is the token check's.
REFUSALS = {
    "access denied by policy": "risk_deny",
    "authentication service unavailable; try again later": "unavailable",
}


def wrong_code(code: str) -> str:
    """A six-digit code guaranteed different from ``code``."""
    return f"{(int(code) + 1) % 1000000:06d}"


def run_plan(plan: FaultPlan, seed: int) -> Report:
    """Execute one seeded run of ``plan`` and return its report.

    Every plan meets the same deployment — the production shape ``python
    -m repro status`` and loginbench's back-end rig run: sharded and
    replicated storage, the ingest queue, the risk stage, the LDAP-first
    resolver chain, telemetry — and the same workload.  The plan chooses
    what happens *to* it, never what it is made of.
    """
    clock = VirtualClock.at(EPOCH)
    center = MFACenter(
        clock=clock,
        rng=random.Random(seed),
        telemetry=True,
        storage=StorageConfig(shards=2, replicas=2),
        radius_deadline=DEADLINE_BUDGET,
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
    scheduler = EventScheduler(clock=clock, seed=seed)

    def backfill(items: int):
        """Dump a batch-class storm and start the pump that drains it.

        Synchronous validates are caller-runs and need no pump; deferred
        work does, so the backfill window schedules one (and the engine
        cancels the returned handle when the window closes).
        """
        for i in range(items):
            center.ingest_queue.submit(
                resync_creds[i % len(resync_creds)], PriorityClass.BATCH
            )
        return center.ingest_queue.attach(
            scheduler,
            interval=PUMP_INTERVAL,
            items_per_pump=PUMP_ITEMS,
        )

    engine = ChaosEngine(
        plan,
        clock,
        seed,
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
    engine.record("run", scenario=plan.name, seed=seed, logins=LOGINS)
    # Watchlist the attacker's network and plant decoy accounts whose full
    # credentials (password *and* seed) sit in the dump the attacker bought.
    center.risk_stage.add_watchlist(WATCHLIST)
    decoys: List[Tuple[str, TOTPGenerator]] = []
    for i in range(HONEYTOKENS):
        username = f"decoy{i + 1}"
        center.create_user(username, password=f"pw-{username}")
        _, secret = center.pair_honeytoken(username)
        decoys.append((username, TOTPGenerator(secret=secret, clock=clock)))

    client = SSHClient(source_ip="198.51.100.9")
    farm = [server.address for server in center.radius_servers]

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
        engine.record(
            "attempt",
            user=username,
            expect=expect_success,
            healthy=healthy,
            ok=result.success,
            silent=not result.success
            and all(line == node.banner for line in conversation.displayed),
            latency=round(clock.now() - started, 6),
        )

    attacker = SSHClient(source_ip=ATTACKER_IP)

    def _attacker_attempt(k: int) -> None:
        # Odd attempts spend the stolen decoy credentials (correct code —
        # indistinguishability is the decoy's job); even attempts stuff a
        # legitimate account's compromised password with a guessed code.
        decoy = k % 2 == 1
        if decoy:
            username, device = decoys[(k // 2) % len(decoys)]
            group, channel = "honeytoken", "stolen_seed"
        else:
            username = users[k % len(users)]
            device, group, channel = devices[username], "totp", "guessed_code"
        token = device.current_code if decoy else (lambda: wrong_code(device.current_code()))
        stage = center.risk_stage
        flags_before = stage.flags_for(username)
        alarms_before = len(center.otp.honeytoken_alarms)
        result, conversation = attacker.connect(
            node, username, password=f"pw-{username}", token=token
        )
        refused = (REFUSALS[line] for line in conversation.displayed if line in REFUSALS)
        engine.record(
            "attack",
            user=username,
            group=group,
            channel=channel,
            ok=result.success,
            blocked_by="" if result.success else next(refused, "otp_reject"),
            flagged=stage.flags_for(username) > flags_before,
            alarmed=len(center.otp.honeytoken_alarms) > alarms_before,
        )

    engine.schedule_ticks(scheduler)
    base = clock.now()
    horizon = LOGINS * STEP_SECONDS
    for index in range(LOGINS):
        scheduler.schedule_at(base + index * STEP_SECONDS, _login, index)
    # Offset so attacker attempts interleave with (never tie against) the
    # legitimate train's slots.
    for k in range(ATTACKER_ATTEMPTS):
        scheduler.schedule_at(
            base + 5.0 + k * horizon / ATTACKER_ATTEMPTS, _attacker_attempt, k
        )
    try:
        scheduler.run_until(base + horizon)
        engine.tick()  # close any windows that ended exactly at the horizon
    finally:
        engine.detach()
    return Report(
        plan.name,
        seed,
        engine.log,
        plan.availability_floor,
        len(center.otp.honeytoken_alarms),
        center.risk_stage.snapshot(),
    )
