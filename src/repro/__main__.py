"""Command-line entry point: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` a command's flags; an unknown command or flag, a
missing or malformed value, a count out of range or an unreadable file
prints the usage on stderr and exits 2.

Each view has one rendering: ``demo`` is the quickstart login alone,
``status`` the operator view as JSON, ``telemetry`` the Prometheus-text
scrape (series, then the operator view as ``repro_status`` lines, then
the span tree), and ``storage`` the durability toolbox.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_report(args) -> int:
    from repro.analysis.report import evaluation_report

    try:
        text = evaluation_report(
            population=args.population, seed=args.seed, seeds=args.seeds
        )
    except ValueError as exc:  # ``Population``: a size too small to simulate
        args.error(str(exc))
    print(text)
    return 0


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

    from repro.common.clock import VirtualClock
    from repro.core import MFACenter
    from repro.crypto.totp import TOTPGenerator
    from repro.ssh import SSHClient
    from repro.storage import StorageConfig

    clock = VirtualClock.at("2016-10-05T09:00:00")
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


def _cmd_demo(args) -> int:
    _, result, _ = _demo_login()
    print("demo login:", "GRANTED" if result.success else "DENIED")
    print("session items:", result.session_items)
    return 0 if result.success else 1


def _cmd_telemetry(args) -> int:
    """The registry's series, then the state ``status()`` holds (as
    ``repro_status`` lines), then the span trees."""
    from repro.telemetry import render_status_text, render_text, render_trace_text

    center, result, _ = _demo_login(telemetry=True, shards=args.shards)
    snapshot = center.telemetry.snapshot()
    print(render_text(snapshot), end="")
    print(render_status_text(center.otp.status()))
    print(render_trace_text(snapshot))
    return 0 if result.success else 1


def _cmd_qr(args) -> int:
    from repro.qr import encode

    qr = encode(" ".join(args.text), level="M")
    print(qr.to_text(dark="##", light="  ", border=2))
    return 0


def _cmd_scenario(args) -> int:
    import json

    from repro.chaos import run, scenarios

    catalogue = scenarios()
    if args.list:
        for name, scenario in catalogue.items():
            print(f"{name:16s}{scenario.description}")
        return 0
    if args.name not in catalogue:
        args.error(f"unknown scenario {args.name!r}; try --list")
    summary = run(catalogue[args.name], args.seed).summary()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 1 if summary["violations"] else 0
    honest, attack = summary["honest"], summary["attack"]
    print(f"scenario: {args.name} (seed {args.seed})")
    print(
        f"honest logins: {honest['succeeded']}/{honest['attempts']} succeeded, "
        f"availability {honest['availability']:.4f} (floor {honest['floor']:.2f}), "
        f"p99 {honest['p99_latency_seconds']} s"
    )
    print(f"attacks: {attack['succeeded']}/{attack['attempts']} got in; blocked rate by token type:")
    for group, row in attack["by_group"].items():
        print(f"  {group:10s} {row['blocked_rate']:8.1%}  ({row['blocked']}/{row['attempts']} blocked)")
    for label, counts in (("blocked by", attack["blocked_by"]), ("successes", attack["success_channels"])):
        print(f"{label}: {', '.join(f'{k}={v}' for k, v in counts.items()) or 'none'}")
    print(f"honeytoken: {attack['honeytoken']['uses']} uses, {attack['honeytoken']['alarms']} alarms")
    risk = summary["risk"]
    print(
        f"risk stage: {risk['assessed']} assessed, {risk['step_ups']} step-ups, "
        f"{risk['denies']} denies, {risk['flagged_users']} flagged users"
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
    tickets = [
        center.ingest_queue.submit(("resync", code), PriorityClass.BATCH)
        for _ in range(20)
    ]
    for ticket in tickets:
        ticket.result()
    return center, login.success and repeat.ok and federated.ok


def _cmd_status(args) -> int:
    import json

    from repro.common.errors import NotFoundError

    center, passed = _status_scenario(
        shards=args.shards,
        durability=args.durability,
        replicas=args.replicas,
        mode=args.mode,
        deadline=args.deadline,
    )
    try:
        print(json.dumps(center.otp.status(args.section), indent=2))
    except NotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0 if passed else 1


def _cmd_storage(args) -> int:
    import json
    import os

    from repro.common.errors import ConfigurationError
    from repro.storage import load_wal, replay, state_digest, wal_digests

    if args.replay is not None:
        path = args.replay
        try:
            records, dropped = load_wal(path)
        except OSError as exc:  # no such file, a directory, no permission
            args.error(f"cannot read {path}: {exc.strerror}")
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

    try:
        os.makedirs(args.demo, exist_ok=True)
    except OSError as exc:
        args.error(f"cannot use {args.demo}: {exc.strerror}")
    try:
        center, result, _ = _demo_login(
            shards=args.shards, durability=True, replicas=args.replicas, wal_dir=args.demo
        )
    except ConfigurationError as exc:  # a shard WAL written by an earlier run
        args.error(str(exc))
    out = {
        "login": "GRANTED" if result.success else "DENIED",
        "digests": wal_digests(center.otp.db.engine),
        "stats": center.otp.status("storage"),
    }
    print(json.dumps(out, indent=2))
    return 0 if result.success else 1


def _at_least(minimum: int):
    """An argparse ``type`` for a count: an integer no lower than
    ``minimum``, so a bad count is a usage error before any work starts."""

    def count(text: str) -> int:
        value = int(text)  # ValueError: argparse reports "invalid count value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"needs N >= {minimum}, got {value}")
        return value

    return count


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The paper's MFA infrastructure, end to end, from the command line.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, run, summary):
        sub = commands.add_parser(
            name, help=summary, description=summary, allow_abbrev=False
        )
        # ``error`` prints this command's usage on stderr and exits 2.
        sub.set_defaults(run=run, error=sub.error)
        return sub

    def shards_flag(sub, default=1):
        sub.add_argument("--shards", type=_at_least(1), default=default, metavar="N",
                         help=f"shard the OTP back end's storage N ways (default {default})")

    def stack_flags(sub, shards=1):
        shards_flag(sub, shards)
        sub.add_argument("--replicas", type=_at_least(0), default=0, metavar="N",
                         help="give every shard N log-shipping replicas")

    sub = command(
        "report", _cmd_report,
        "Run the rollout simulation and print the paper-vs-measured evaluation report.",
    )
    sub.add_argument("population", nargs="?", type=int, default=10_000,
                     help="accounts (default: the paper's 10,000)")
    sub.add_argument("seed", nargs="?", type=int, default=20160810)
    sub.add_argument("--seeds", type=_at_least(1), default=1, metavar="N",
                     help="also run the next N-1 seeds and print each statistic's "
                          "cross-seed mean and range")

    command("demo", _cmd_demo, "The quickstart walkthrough: pair a token, log in.")

    sub = command(
        "telemetry", _cmd_telemetry,
        "Run one instrumented login and dump the series, the operator view as "
        "repro_status{path=...} lines, and the span tree.",
    )
    shards_flag(sub)

    sub = command(
        "qr", _cmd_qr, "Render text as a terminal QR code (the portal's pairing renderer)."
    )
    sub.add_argument("text", nargs="+")

    sub = command(
        "scenario", _cmd_scenario,
        "Run a seeded adversarial scenario (a fault plan under an honest login "
        "train and an attacker, or an attack campaign) and report its honest and "
        "attack outcomes, the risk-stage counters, the determinism digest and the "
        "invariant verdicts; exits 1 if any invariant was violated.",
    )
    sub.add_argument("name", nargs="?", default="kitchen-sink", metavar="NAME",
                     help="the scenario (default: kitchen-sink; see --list)")
    sub.add_argument("--seed", type=int, default=101, metavar="N")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--list", action="store_true", help="list the scenarios and exit")

    sub = command(
        "status", _cmd_status,
        "The operator view, OTPServer.status() (= GET /admin/status), of a "
        "production-shaped demo deployment after one fixed scenario, as JSON.",
    )
    sub.add_argument("section", nargs="?", metavar="SECTION",
                     help="print one section (storage, queue, systems, sms, ...; "
                          "default: all of them)")
    stack_flags(sub)
    sub.add_argument("--durability", action="store_true", help="add write-ahead logging")
    sub.add_argument("--mode", default="full", metavar="MODE",
                     help="the system's enforcement mode")
    sub.add_argument("--deadline", metavar="DATE", help="the countdown ladder's deadline")

    sub = command("storage", _cmd_storage, "The durability toolbox.")
    action = sub.add_mutually_exclusive_group(required=True)
    action.add_argument("--demo", metavar="DIR",
                        help="run the demo login with per-shard WAL files under DIR and "
                             "print each file's live state digest")
    action.add_argument("--replay", metavar="WAL",
                        help="rebuild an engine offline from a WAL file and print the "
                             "recovered digest")
    stack_flags(sub, shards=2)
    return parser


def main(argv: list) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            args.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args)
    except SystemExit as exc:  # argparse printed the usage (2) or the help (0)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
