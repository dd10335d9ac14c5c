"""One count per fact: what ``status()`` reports is not also a series.

The registry records events that cannot be recomputed later (latency
distributions, labelled event counts no attribute keeps, span trees); a
level or total a subsystem already keeps is read from that attribute
through ``OTPServer.status()`` — and scraped as ``repro_status{path=…}`` —
never mirrored per request.  Each row below is a retired series, the
``status()`` path that holds its fact, and the subsystem attribute that is
now the only count; the second half drives the same center from eight
threads and checks the surviving counts are exact.
"""

import random
import sys
import threading

import pytest

from repro.__main__ import _status_scenario
from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.ingest import IngestConfig, PriorityClass
from repro.resolvers import ResolverConfig
from repro.resolvers import chain as chain_module
from repro.ssh import SSHClient
from repro.storage import StorageConfig, find_layer, shards_of
from repro.telemetry import render_status_text
from tests.test_layering import RETIRED_SERIES

SMS_PHONE = "5125550101"


@pytest.fixture(scope="module")
def center():
    """The ``status`` subcommand's scenario, telemetry on, every storage
    layer present, plus what keeps every compared count off zero: an SMS
    login and a multiplexed channel on it, a rejected login, a datagram to
    a downed server, a honeytoken probe, a billed month, one shed arrival,
    one promotion and two point reads of one row (a cache miss, then a hit)."""
    center, passed = _status_scenario(telemetry=True, shards=2, replicas=1, risk=True)
    assert passed
    node = center.system("stampede").login_node()
    center.create_user("texter", password="pw-texter")
    center.pair_sms("texter", SMS_PHONE)

    def read_sms():
        center.clock.advance(20)
        return center.sms_gateway.latest(SMS_PHONE).body.split()[-1]

    client = SSHClient("198.51.100.8", multiplex=True)
    for _ in range(2):  # the second connect rides the first as a channel
        result, _ = client.connect(
            node, "texter", password="pw-texter", extra_answers={"token code": read_sms}
        )
        assert result.success
    assert not SSHClient("198.51.100.9").connect(node, "nobody", password="x")[0].success
    center.sms_gateway.bill_month()
    center.create_user("decoy", password="pw-decoy")
    center.pair_honeytoken("decoy")
    assert not center.radius_backend.validate("decoy", "000000", "198.51.100.9").ok
    # Not chaos, not loss: a downed address drops the datagram all the same.
    down = center.radius_servers[2].address
    center.fabric.set_down(down)
    assert center.fabric.send_request(down, b"", "10.3.1.5") is None
    # A full queue refuses at the door: hold it at depth 1 with one queued
    # request (an unknown name, which no layer below the resolver sees),
    # offer a second, then let the first run.
    queue = center.ingest_queue
    config, queue.config = queue.config, IngestConfig(max_depth=1)
    held = queue.submit(("nobody", "000000"))
    refused = queue.submit(("nobody", "000000")).result()
    assert refused.reason == "shed: queue full (interactive rejected)"
    queue.config = config
    assert held.result().reason == "unknown user"
    engine = center.otp.db.engine
    serial = engine.select("tokens")[0]["serial"]
    assert engine.get("tokens", serial) == engine.get("tokens", serial)
    find_layer(shards_of(center.otp.db.engine)[0], "crash_primary").crash_primary()
    return center


def _queue(center, cls):
    return center.ingest_queue._stats[PriorityClass(cls)]


def _resolver(center, name):
    return center.resolver_chain.resolver(name)


def _resolver_health(center, name):
    return center.resolver_chain._tracker.health(name)


def _client_health(center, node, server):
    system = center.system("stampede")
    return system.radius_clients[node].health.health(server)


def _node(center, index):
    return center.system("stampede").daemons[index]


def _shards(center):
    return shards_of(center.otp.db.engine)


def _cache(center):
    return find_layer(center.otp.db.engine, "cache_info")


#: (retired series, status() path, the one count that stays).
FACTS = [
    ("ingest_depth", "queue.classes.batch.depth",
     lambda c: c.ingest_queue._heap.depth(PriorityClass.BATCH)),
    ("ingest_submitted_total", "queue.classes.interactive.submitted",
     lambda c: _queue(c, "interactive").submitted),
    ("ingest_completed_total", "queue.classes.batch.completed",
     lambda c: _queue(c, "batch").completed),
    ("ingest_retries_total", "queue.classes.batch.retries",
     lambda c: _queue(c, "batch").retries),
    ("ingest_sla_total", "queue.classes.batch.sla_hits",
     lambda c: _queue(c, "batch").sla_hits),
    ("ingest_sla_total", "queue.classes.batch.sla_misses",
     lambda c: _queue(c, "batch").sla_misses),
    ("ingest_shed_total", "queue.classes.interactive.shed",
     lambda c: _queue(c, "interactive").shed),
    ("resolver_lookups_total", "resolvers.resolvers.ldap.stats.hits",
     lambda c: _resolver(c, "ldap").hits),
    ("resolver_lookups_total", "resolvers.resolvers.ldap.stats.misses",
     lambda c: _resolver(c, "ldap").misses),
    ("resolver_lookups_total", "resolvers.resolvers.federated.stats.errors",
     lambda c: _resolver(c, "federated").errors),
    ("resolver_lookups_total", "resolvers.unrouted",
     lambda c: c.resolver_chain.unrouted),
    ("resolver_health", "resolvers.resolvers.ldap.score",
     lambda c: _resolver_health(c, "ldap").score),
    ("resolver_circuit_state", "resolvers.resolvers.ldap.state",
     lambda c: _resolver_health(c, "ldap").state.value),
    ("resolver_circuit_transitions_total", "resolvers.resolvers.ldap.transitions",
     lambda c: _resolver_health(c, "ldap").transitions),
    ("radius_server_health", "systems.stampede.radius.login1.stampede.10.0.0.10:1812.score",
     lambda c: _client_health(c, 0, "10.0.0.10:1812").score),
    ("radius_circuit_state", "systems.stampede.radius.login2.stampede.10.0.0.11:1812.state",
     lambda c: _client_health(c, 1, "10.0.0.11:1812").state.value),
    ("radius_circuit_transitions_total",
     "systems.stampede.radius.login1.stampede.10.0.0.10:1812.transitions",
     lambda c: _client_health(c, 0, "10.0.0.10:1812").transitions),
    ("radius_server_requests_total", "radius.radius1.handled",
     lambda c: c.radius_servers[0].handled),
    ("radius_server_duplicates_total", "radius.radius1.duplicates_replayed",
     lambda c: c.radius_servers[0].duplicates_replayed),
    ("radius_server_unknown_clients_total", "radius.radius2.rejected_clients",
     lambda c: c.radius_servers[1].rejected_clients),
    ("policy_risk_assessments_total", "policy.risk.assessed",
     lambda c: c.risk_stage.assessed),
    ("policy_risk_assessments_total", "policy.risk.step_ups",
     lambda c: c.risk_stage.step_ups),
    ("policy_risk_assessments_total", "policy.risk.denies",
     lambda c: c.risk_stage.denies),
    ("storage_shard_rows", "storage.shards.1.tables.tokens",
     lambda c: _shards(c)[1].row_count("tokens")),
    ("storage_wal_snapshots_total", "storage.shards.0.wal.snapshots",
     lambda c: _shards(c)[0].wal.snapshots),
    ("storage_promotions_total", "storage.shards.0.replication.promotions",
     lambda c: _shards(c)[0].promotions),
    ("storage_cache_entries", "storage.cache.entries", lambda c: len(_cache(c)._cache)),
    ("storage_cache_hits_total", "storage.cache.hits", lambda c: _cache(c)._cache.hits),
    ("storage_cache_misses_total", "storage.cache.misses",
     lambda c: _cache(c)._cache.misses),
    ("otp_audit_log_size", "audit.records", lambda c: len(c.otp.audit)),
    ("otp_audit_lag_seconds", "audit.latest_timestamp",
     lambda c: c.otp.audit.entries()[-1].timestamp),
    ("ssh_logins_total", "systems.stampede.nodes.login1.stampede.logins_accepted",
     lambda c: _node(c, 0).logins_accepted),
    ("ssh_logins_total", "systems.stampede.nodes.login1.stampede.logins_rejected",
     lambda c: _node(c, 0).logins_rejected),
    ("ssh_logins_total", "systems.stampede.nodes.login1.stampede.open_connections",
     lambda c: len(_node(c, 0).open_connections())),
    ("radius_client_requests_total",
     "systems.stampede.radius.login1.stampede.10.0.0.11:1812.attempts",
     lambda c: c.system("stampede").radius_clients[0].per_server_attempts["10.0.0.11:1812"]),
    ("sms_messages_total", "sms.messages_sent", lambda c: c.sms_gateway.messages_sent),
    ("sms_cost_dollars_total", "sms.message_charges",
     lambda c: c.sms_gateway.message_charges),
    ("sms_cost_dollars_total", "sms.total_cost", lambda c: c.sms_gateway.total_cost()),
    ("udp_fabric_bindings_total", "fabric.listeners", lambda c: len(c.fabric._listeners)),
    ("udp_fabric_chaos_drops_total", "fabric.dropped", lambda c: c.fabric.stats.dropped),
    ("otp_honeytoken_alarms_total", "audit.honeytoken_alarms",
     lambda c: len(c.otp.honeytoken_alarms)),
    ("storage_replica_ship_total", "storage.shards.1.replication.replicas.0.applied_lsn",
     lambda c: _shards(c)[1].replicas[0].applied_lsn),
]

#: Retired series with no ``status()`` path, and where their fact is.
NOT_IN_STATUS = {
    # Reported into a registry no caller ever passed.  The portal is not part
    # of a center; what it does ends as ``tokens`` rows and ``enroll`` /
    # ``unpair`` audit rows through the admin API, as it always did.
    "portal_logins_total": "no fact kept",
    "portal_pairings_total": "storage.tables.tokens",
    "portal_unpairs_total": "audit.records",
    # The harness's event log is the count (``Report.summary()["events"]``);
    # the series also counted every ``attempt`` and ``run`` row as a fault.
    "chaos_faults_injected_total": "ChaosEngine.events",
}


def _at(status, path):
    """Walk a dotted path; keys may themselves contain dots (host names,
    addresses), so take the longest key that matches at each level."""
    node, rest = status, path.split(".")
    while rest:
        for width in range(len(rest), 0, -1):
            key = ".".join(rest[:width])
            if isinstance(node, list) and width == 1 and key.isdigit():
                node, rest = node[int(key)], rest[1:]
                break
            if isinstance(node, dict) and key in node:
                node, rest = node[key], rest[width:]
                break
        else:
            raise KeyError(path)
    return node


def test_every_retired_series_has_a_row():
    with_a_path = {name for name, _, _ in FACTS}
    assert with_a_path.isdisjoint(NOT_IN_STATUS)
    assert with_a_path | set(NOT_IN_STATUS) == set(RETIRED_SERIES)


def test_no_retired_series_is_registered(center):
    registered = set(center.telemetry.instruments())
    assert registered.isdisjoint(RETIRED_SERIES)
    # What is left are events: of the center's own layers, these.
    assert {
        "otp_validate_total", "policy_decisions_total", "storage_wal_appends_total",
        "ingest_wait_seconds", "storage_transactions_total",
        "authflow_stage_seconds", "authflow_stage_errors_total", "storage_op_seconds",
        "resolver_lookup_seconds", "ssh_password_attempts", "sms_delivery_delay_seconds",
        "ssh_multiplexed_channels_total", "otp_sms_challenges_total",
    } <= registered
    # ... and they still count: the channel attached without re-auth, the
    # SMS challenge started, are events no attribute keeps.
    assert center.telemetry.counter("ssh_multiplexed_channels_total").total() == 1
    assert center.telemetry.counter("otp_sms_challenges_total").total() == 1


@pytest.mark.parametrize(("series", "path", "attribute"), FACTS, ids=[f[1] for f in FACTS])
def test_fact_is_at_its_status_path(center, series, path, attribute):
    status = center.otp.status()
    value = _at(status, path)
    held = attribute(center)
    assert value == (round(held, 6) if isinstance(held, float) else held)
    text = render_status_text(status)
    if isinstance(value, str):
        assert f'path="{path}"' not in text  # strings carry no sample
    else:
        number = int(value) if float(value).is_integer() else value
        assert f'repro_status{{path="{path}"}} {number}\n' in text


def test_counts_in_the_scenario_are_not_vacuous(center):
    status = center.otp.status()
    assert _at(status, "queue.classes.batch.completed") == 20
    assert _at(status, "queue.classes.batch.sla_hits") == 20
    # Offered, not admitted: the arrival refused at the door counts.
    lane = _at(status, "queue.classes.interactive")
    assert lane["submitted"] == lane["completed"] + lane["shed"] == 7
    assert lane["shed"] == lane["rejected"] == 1
    assert _at(status, "resolvers.resolvers.ldap.stats.hits") >= 2
    assert _at(status, "radius.radius1.handled") == 1
    # The front tier: two logins in (the demo's, the SMS user's — whose second
    # connect was a channel, not a login), one refused, both masters open.
    assert _at(status, "systems.stampede.nodes.login1.stampede") == {
        "logins_accepted": 2, "logins_rejected": 1, "open_connections": 2,
    }
    assert _at(status, "sms") == {
        "messages_sent": 1, "message_charges": 0.0075, "months_billed": 1,
        "total_cost": 1.0075, "pending": 0,
    }
    # Three round trips by login1's client, one datagram to a downed address.
    assert _at(status, "fabric") == {
        "sent": 4, "delivered": 3, "dropped": 1, "no_listener": 0,
        "listeners": 3, "down": ["10.0.0.12:1812"],
    }
    assert _at(status, "audit.honeytoken_alarms") == 1
    assert _at(status, "storage.shards.1.replication.replicas.0.applied_lsn") > 0
    assert _at(status, "policy.risk.assessed") >= 3
    assert _at(status, "storage.shards.0.replication.promotions") == 1
    # One point read by the SMS challenge (a miss), then the fixture's pair.
    assert _at(status, "storage.cache") == {
        "entries": 1, "capacity": 64, "hits": 1, "misses": 2, "hit_ratio": 0.3333,
    }
    assert _at(status, "audit.records") == len(center.otp.audit) > 20
    assert _at(status, "systems.stampede.radius.login1.stampede.10.0.0.10:1812.successes") == 1


# -- exact under threads --------------------------------------------------------

THREADS = 8
VALIDATES = 500
USERS = 64
SEED = 20160810


def _run_on_threads(worker):
    """``worker(slot)`` on THREADS threads, switching as often as possible."""
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_status_totals_are_exact_under_threads(monkeypatch):
    # A cache far smaller than the user pool: resolvers keep answering.
    monkeypatch.setattr(chain_module, "CACHE_CAPACITY", 8)
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(SEED),
        telemetry=True,
        storage=StorageConfig(shards=2, durability=True),
        ingest=True,
        risk=True,
        resolvers=ResolverConfig(use_ldap=True),
    )
    center.add_system("stampede", mode="full")
    codes = {}
    for n in range(USERS):
        center.create_user(f"u{n}", password="pw")
        codes[f"u{n}"] = center.pair_training(f"u{n}")
    before = center.otp.status()
    errors = []

    def worker(slot: int) -> None:
        rng = random.Random(SEED * 31 + slot)
        try:
            for n in range(VALIDATES):
                name = f"u{rng.randrange(USERS)}"
                wrong = n % 10 == 0
                result = center.radius_backend.validate(
                    name, "000000" if wrong else codes[name], f"198.51.100.{slot}"
                )
                assert result.ok != wrong
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(repr(exc))

    _run_on_threads(worker)
    assert errors == []

    issued = THREADS * VALIDATES
    status = center.otp.status()
    queue = status["queue"]
    assert queue["completed_total"] - before["queue"]["completed_total"] == issued
    assert queue["submitted_total"] - before["queue"]["submitted_total"] == issued
    assert queue["depth"] == queue["shed_total"] == queue["error_total"] == 0
    lane = queue["classes"]["interactive"]
    assert lane["sla_hits"] + lane["sla_misses"] == lane["completed"]
    resolvers = status["resolvers"]
    assert resolvers["lookups"] - before["resolvers"]["lookups"] == issued
    asked = 0
    for name, entry in resolvers["resolvers"].items():
        stats = entry["stats"]
        assert stats["hits"] + stats["misses"] + stats["errors"] == stats["lookups"]
        # The tracker heard about every answer: its state is consistent.
        assert entry["successes"] + entry["failures"] == stats["lookups"], name
        assert entry["state"] == "closed" and entry["transitions"] == 0
        asked += stats["lookups"] - before["resolvers"]["resolvers"][name]["stats"]["lookups"]
    cache = resolvers["cache"]
    assert asked + cache["hits"] - before["resolvers"]["cache"]["hits"] == issued
    assert asked > USERS  # the small cache really did keep missing
    risk = status["policy"]["risk"]
    assert risk["assessed"] - before["policy"]["risk"]["assessed"] == issued
    assert center.otp.validate_requests == issued
    assert status["audit"]["records"] - before["audit"]["records"] == issued
    assert center.telemetry.counter("otp_validate_total").total() == issued


def test_radius_handled_is_exact_under_threads():
    """The RADIUS tier's counts, through the real wire: every login node's
    client on its own thread, each round trip counted once."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(SEED), ingest=True)
    system = center.add_system("stampede", login_nodes=THREADS, mode="full")
    codes = {}
    for n in range(USERS):
        center.create_user(f"u{n}", password="pw")
        codes[f"u{n}"] = center.pair_training(f"u{n}")
    errors = []
    rounds = 100

    def worker(slot: int) -> None:
        rng = random.Random(SEED * 31 + slot)
        client = system.radius_clients[slot]
        try:
            for _ in range(rounds):
                name = f"u{rng.randrange(USERS)}"
                assert client.authenticate(name, codes[name]).ok
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(repr(exc))

    _run_on_threads(worker)
    assert errors == []
    status = center.otp.status()
    farm = status["radius"].values()
    assert sum(server["handled"] for server in farm) == THREADS * rounds
    assert all(
        server["duplicates_replayed"] == server["duplicates_dropped"] == 0
        for server in farm
    )
    assert status["queue"]["completed_total"] == THREADS * rounds
    for node in status["systems"]["stampede"]["radius"].values():
        assert sum(server["successes"] for server in node.values()) == rounds
        assert all(
            server["failures"] == server["transitions"] == 0 and server["state"] == "closed"
            for server in node.values()
        )
