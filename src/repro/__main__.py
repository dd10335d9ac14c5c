"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``report [population] [seed] [--seeds N]`` — run the rollout simulation
  and print the paper-vs-measured evaluation report (default: the paper's
  10,000 accounts, seed 20160810); ``--seeds N`` also runs the next N-1
  seeds and prints each statistic's cross-seed mean and range.
* ``demo [--telemetry-dump] [--shards N] [--durability] [--replicas N]``
  — the quickstart walkthrough (pair a token, log in); ``--shards`` runs
  the OTP back end on a sharded storage stack, ``--durability`` adds
  write-ahead logging and ``--replicas`` gives every shard N log-shipping
  replicas; with ``--telemetry-dump``, print the telemetry snapshot of the
  login.
* ``telemetry [--json] [--shards N]`` — run one instrumented
  login and dump the resulting metrics snapshot and span tree (text by
  default), including the storage-engine op series, then the operator
  view as ``repro_status{path=…}`` lines (``--json``: a ``"status"`` key).
* ``qr <text>`` — render any text as a terminal QR code (the portal's
  pairing renderer, exposed because it is genuinely handy).
* ``chaos [--plan NAME] [--seed N] [--logins M] [--json] [--list]`` — run
  a login workload under a seeded fault plan and report the invariant
  verdicts; exits non-zero if any invariant was violated.
* ``attack [--scenario NAME] [--seed N] [--accounts N] [--json]`` — run a
  seeded adversarial campaign (credential stuffing, real-time phishing,
  SIM-swap interception, or mixed) against a simulated deployment and
  print the blocked-attack rates by token type, the honeytoken alarm
  tally, the risk-stage counters and the determinism digest; exits
  non-zero if either adversarial invariant was violated.  Output is
  byte-identical across runs with the same arguments.
* ``status [SECTION] [--json] [--shards N] [--durability] [--replicas N]
  [--mode MODE] [--deadline DATE]`` — the operator view,
  ``OTPServer.status()``, of a production-shaped demo deployment (ingest
  queue and LDAP resolver chain on) after one fixed scenario: the demo
  login, a repeat validate (a resolver cache hit), a federated home-site
  login and a short batch backfill.  Prints every section — ``storage``,
  ``policy``, ``audit``, ``resolvers``, ``queue``, ``systems`` (each
  system's enforcement ladder — ``--mode``/``--deadline`` set it — and
  its login nodes' RADIUS client health), ``radius`` — or the one named,
  as JSON (the only rendering; ``--json`` says so explicitly).  The same
  dict is ``GET /admin/status`` on the admin API.
* ``storage --demo DIR [--shards N] [--replicas N]`` / ``storage --replay
  WAL`` — the durability toolbox: ``--demo DIR`` runs the demo login with
  per-shard WAL files written under DIR and prints each file's live state
  digest; ``--replay WAL`` rebuilds an engine offline from a WAL file and
  prints the recovered digest (equal to the live one for an intact log).
"""

from __future__ import annotations

import sys


REPORT_USAGE = "usage: python -m repro report [population] [seed] [--seeds N]"


def _cmd_report(args: list) -> int:
    from repro.analysis.report import evaluation_report

    population, seed, seeds = 10_000, 20160810, 1
    try:
        if "--seeds" in args:
            index = args.index("--seeds")
            seeds = int(args[index + 1])
            args = args[:index] + args[index + 2 :]
        if len(args) > 2 or seeds < 1:
            raise ValueError("at most a population and a seed; --seeds N >= 1")
        if args:
            population = int(args[0])
        if len(args) > 1:
            seed = int(args[1])
        # ``Population`` raises ValueError for a size too small to simulate.
        text = evaluation_report(population=population, seed=seed, seeds=seeds)
    except (ValueError, IndexError) as exc:
        print(f"{exc}\n{REPORT_USAGE}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _str_flag(args: list, flag: str, default=None):
    if flag in args:
        index = args.index(flag)
        if index + 1 >= len(args):
            raise SystemExit(f"{flag} requires a value")
        return args[index + 1]
    return default


def _flag_value(args: list, flag: str, default: int) -> int:
    return int(_str_flag(args, flag, default))


def _demo_login(
    telemetry=None,
    shards: int = 1,
    durability: bool = False,
    replicas: int = 0,
    wal_dir=None,
    mode: str = "full",
    deadline=None,
    **center_options,
):
    """The shared quickstart scenario: pair a soft token, log in once.

    Returns ``(center, login result, the demo user's token device)``.
    """
    import random

    from repro.common.clock import SimulatedClock
    from repro.core import MFACenter
    from repro.crypto.totp import TOTPGenerator
    from repro.ssh import SSHClient
    from repro.storage import StorageConfig

    clock = SimulatedClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(42),
        telemetry=telemetry,
        storage=StorageConfig(
            shards=shards,
            cache_capacity=64,
            durability=durability,
            replicas=replicas,
            wal_dir=wal_dir,
        ),
        **center_options,
    )
    system = center.add_system("stampede", mode=mode, deadline=deadline)
    center.create_user("demo", password="demo-password")
    _, secret = center.pair_soft("demo")
    device = TOTPGenerator(secret=secret, clock=clock)
    client = SSHClient(source_ip="198.51.100.7")
    result, _ = client.connect(
        system.login_node(), "demo",
        password="demo-password", token=device.current_code,
    )
    return center, result, device


def _cmd_demo(args: list) -> int:
    dump = "--telemetry-dump" in args
    replicas = _flag_value(args, "--replicas", 0)
    center, result, _ = _demo_login(
        telemetry=True if dump else None,
        shards=_flag_value(args, "--shards", 1),
        durability="--durability" in args,
        replicas=replicas,
    )
    print("demo login:", "GRANTED" if result.success else "DENIED")
    print("session items:", result.session_items)
    if "--durability" in args or replicas:
        shards = center.otp.status("storage")["shards"]
        for shard in shards:
            wal = shard["wal"]
            print(
                f"wal: {wal['records']} records, last lsn "
                f"{wal['last_lsn']}, {wal['snapshots']} snapshots"
            )
        if replicas:
            followers = [
                replica
                for shard in shards
                for replica in shard["replication"]["replicas"]
            ]
            print(
                f"replication: {len(shards)} shards x {replicas} replicas, "
                f"all caught up: {all(r['caught_up'] for r in followers)}"
            )
    if dump:
        print()
        _print_telemetry(center)
    return 0 if result.success else 1


def _print_telemetry(center, as_json: bool = False) -> None:
    """The registry's series, then the state ``status()`` holds (as
    ``repro_status`` lines; JSON: under ``"status"``), then the span trees."""
    from repro.telemetry import (
        render_json,
        render_status_text,
        render_text,
        render_trace_text,
    )

    snapshot = center.telemetry.snapshot()
    status = center.otp.status()
    if as_json:
        print(render_json({**snapshot, "status": status}))
        return
    print(render_text(snapshot), end="")
    print(render_status_text(status))
    print(render_trace_text(snapshot))


def _cmd_telemetry(args: list) -> int:
    center, result, _ = _demo_login(
        telemetry=True, shards=_flag_value(args, "--shards", 1)
    )
    _print_telemetry(center, as_json="--json" in args)
    return 0 if result.success else 1


def _cmd_qr(args: list) -> int:
    from repro.qr import encode

    if not args:
        print("usage: python -m repro qr <text>", file=sys.stderr)
        return 2
    qr = encode(" ".join(args), level="M")
    print(qr.to_text(dark="##", light="  ", border=2))
    return 0


def _cmd_chaos(args: list) -> int:
    import json

    from repro.chaos import WorkloadConfig, run_chaos, shipped_plans

    plans = shipped_plans()
    if "--list" in args:
        for plan in plans.values():
            print(f"{plan.name:14s} floor={plan.availability_floor:.2f}  "
                  f"{plan.description}")
        return 0
    name = "kitchen-sink"
    if "--plan" in args:
        index = args.index("--plan")
        if index + 1 >= len(args):
            raise SystemExit("--plan requires a value")
        name = args[index + 1]
    plan = plans.get(name)
    if plan is None:
        print(f"unknown plan {name!r}; try --list", file=sys.stderr)
        return 2
    config = WorkloadConfig(
        seed=_flag_value(args, "--seed", 101),
        logins=_flag_value(args, "--logins", 120),
    )
    report = run_chaos(plan, config)
    summary = report.summary()
    if "--json" in args:
        print(json.dumps(summary, indent=2))
    else:
        print(f"plan: {summary['plan']} (seed {summary['seed']})")
        print(f"logins: {summary['successes']}/{summary['attempts']} succeeded")
        print(
            f"availability: {summary['availability']:.4f} "
            f"(floor {summary['availability_floor']:.2f})"
        )
        print(f"false accepts: {summary['false_accepts']}")
        print(f"reasonless denials: {summary['reasonless_denials']}")
        print(f"chaos events: {summary['events']}  digest: {summary['digest'][:16]}")
        for violation in summary["violations"]:
            print(f"INVARIANT VIOLATED: {violation}")
    return 1 if summary["violations"] else 0


def _cmd_attack(args: list) -> int:
    import json

    from repro.sim.attackers import SCENARIOS, AttackConfig, run_attack

    scenario = "stuffing"
    if "--scenario" in args:
        index = args.index("--scenario")
        if index + 1 >= len(args):
            raise SystemExit("--scenario requires a value")
        scenario = args[index + 1]
    if scenario not in SCENARIOS:
        print(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    config = AttackConfig(
        scenario=scenario,
        seed=_flag_value(args, "--seed", 101),
        accounts=_flag_value(args, "--accounts", 100_000),
    )
    summary = run_attack(config).summary()
    if "--json" in args:
        print(json.dumps(summary, indent=2))
        return 1 if summary["violations"] else 0
    print(
        f"attack campaign: {summary['scenario']} (seed {summary['seed']}, "
        f"{summary['accounts']:,} accounts, {summary['targets']:,} compromised)"
    )
    print(f"attempts: {summary['attempts']}")
    print("blocked-attack rate by token type:")
    for group, row in summary["by_token_type"].items():
        print(
            f"  {group:10s} {row['blocked_rate']:8.1%}  "
            f"({row['blocked']}/{row['attempts']} blocked, "
            f"{row['targets']} targets)"
        )
    blocked = ", ".join(f"{k}={v}" for k, v in summary["blocked_by"].items())
    print(f"blocked by: {blocked or 'nothing'}")
    succ = ", ".join(f"{k}={v}" for k, v in summary["success_channels"].items())
    print(f"successes: {succ or 'none'}")
    honey = summary["honeytoken"]
    print(f"honeytoken: {honey['uses']} uses, {honey['alarms']} alarms")
    risk = summary["risk"]
    print(
        f"risk stage: {risk['assessed']} assessed, {risk['step_ups']} step-ups, "
        f"{risk['denies']} denies, {risk['flagged_users']} flagged users"
    )
    print(
        f"legit traffic: {summary['legit']['succeeded']}/"
        f"{summary['legit']['logins']} logins succeeded"
    )
    print(f"events: {summary['events']}  digest: {summary['digest']}")
    for violation in summary["violations"]:
        print(f"INVARIANT VIOLATED: {violation}")
    return 1 if summary["violations"] else 0


def _status_scenario(**demo_options):
    """The ``status`` subcommand's fixed scenario on a production-shaped
    center; returns ``(center, whether all three logins passed)``."""
    from repro.ingest import PriorityClass
    from repro.resolvers import ResolverConfig

    center, login, device = _demo_login(
        ingest=True, resolvers=ResolverConfig(use_ldap=True), **demo_options
    )
    backend = center.radius_backend
    # The same user again: the chain answers from its cache.
    center.clock.advance(31)
    repeat = backend.validate("demo", device.current_code())
    # A federated visitor: a home-site assertion through the same pipeline.
    center.create_user("visitor", password="pw-visitor")
    issuer = center.pair_federated("visitor", "alice@partner")
    federated = backend.validate("alice@partner", issuer.issue("alice"))
    # A batch backfill next to the interactive logins above (a training
    # account's static code revalidates freely, so no lockout trips).
    center.create_user("resync", password="pw-resync")
    code = center.pair_training("resync")
    for ticket in center.ingest_queue.submit_many(
        [("resync", code)] * 20, priority=PriorityClass.BATCH
    ):
        ticket.result()
    return center, login.success and repeat.ok and federated.ok


def _cmd_status(args: list) -> int:
    import json

    from repro.common.errors import NotFoundError

    section = args[0] if args and not args[0].startswith("--") else None
    center, passed = _status_scenario(
        shards=_flag_value(args, "--shards", 1),
        durability="--durability" in args,
        replicas=_flag_value(args, "--replicas", 0),
        mode=_str_flag(args, "--mode", "full"),
        deadline=_str_flag(args, "--deadline"),
    )
    try:
        print(json.dumps(center.otp.status(section), indent=2))
    except NotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0 if passed else 1


def _cmd_storage(args: list) -> int:
    import json
    import os

    from repro.storage import load_wal, replay, state_digest

    if "--replay" in args:
        index = args.index("--replay")
        if index + 1 >= len(args):
            raise SystemExit("--replay requires a WAL file path")
        path = args[index + 1]
        records, dropped = load_wal(path)
        engine = replay(records)
        out = {
            "path": path,
            "records": len(records),
            "dropped": dropped,
            "digest": state_digest(engine),
            "tables": {name: engine.row_count(name) for name in engine.tables()},
        }
        print(json.dumps(out, indent=2))
        return 0

    if "--demo" not in args:
        print("usage: python -m repro storage --demo DIR | --replay WAL", file=sys.stderr)
        return 2
    index = args.index("--demo")
    if index + 1 >= len(args):
        raise SystemExit("--demo requires a directory")
    wal_dir = args[index + 1]
    os.makedirs(wal_dir, exist_ok=True)
    center, result, _ = _demo_login(
        shards=_flag_value(args, "--shards", 2),
        durability=True,
        replicas=_flag_value(args, "--replicas", 0),
        wal_dir=wal_dir,
    )
    engine = center.otp.db.engine
    stats = center.otp.status("storage")
    out = {
        "login": "GRANTED" if result.success else "DENIED",
        # One log file per shard; an unsharded stack is its own one shard.
        "digests": {
            entry["wal"]["path"]: state_digest(shard)
            for entry, shard in zip(stats["shards"], getattr(engine, "shards", [engine]))
        },
        "stats": stats,
    }
    print(json.dumps(out, indent=2))
    return 0 if result.success else 1


def main(argv: list) -> int:
    commands = {
        "report": _cmd_report,
        "demo": _cmd_demo,
        "telemetry": _cmd_telemetry,
        "qr": _cmd_qr,
        "chaos": _cmd_chaos,
        "attack": _cmd_attack,
        "status": _cmd_status,
        "storage": _cmd_storage,
    }
    if not argv or argv[0] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
