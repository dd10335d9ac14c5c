"""The one operator view: ``OTPServer.status()`` and ``GET /admin/status``.

The storage section must not depend on the stack's shape (the four stacks
below once gave four key sets), every value the four retired endpoints
returned must still be there, and a section nobody wired is absent — a 404
over the API — never a stub.
"""

import json
import random

import pytest

from repro.__main__ import main
from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError, ValidationError
from repro.core import MFACenter
from repro.otpserver import OTPServer
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.storage import (
    InMemoryEngine,
    ShardedEngine,
    StorageConfig,
    WALEngine,
    find_layer,
    shards_of,
)

STACKS = {
    "memory": StorageConfig(),
    "wal": StorageConfig(durability=True),
    "sharded-wal": StorageConfig(shards=2, durability=True),
    "replicated": StorageConfig(shards=2, replicas=1),
    "sharded-cached": StorageConfig(shards=2, cache_capacity=8),
}


def assert_same_keys(left, right, path="storage"):
    """Equal key sets at every level; the entries of a list (of either
    side — an empty list has none to differ) all share one shape."""
    if isinstance(left, dict) or isinstance(right, dict):
        assert isinstance(left, dict) and isinstance(right, dict), path
        assert set(left) == set(right), path
        for key in left:
            assert_same_keys(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list) or isinstance(right, list):
        entries = left + right
        for entry in entries[1:]:
            assert_same_keys(entries[0], entry, f"{path}[]")


def _center(storage, ingest):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock, rng=random.Random(7), storage=storage, ingest=ingest
    )
    center.add_system("stampede", mode="paired")
    for n in range(6):
        center.create_user(f"user{n}", password="pw")
        code = center.pair_training(f"user{n}")
        assert center.radius_backend.validate(f"user{n}", code).ok
    return center


@pytest.fixture(scope="module")
def reference():
    """The storage section of the stack with every layer in it."""
    return _center(STACKS["replicated"], True).otp.status("storage")


@pytest.mark.parametrize("ingest", [True, None], ids=["queue", "no-queue"])
@pytest.mark.parametrize("stack", STACKS)
class TestShapeIndependence:
    def test_storage_section_has_one_shape(self, stack, ingest, reference):
        config = STACKS[stack]
        storage = _center(config, ingest).otp.status("storage")
        assert_same_keys(storage, reference)
        assert len(storage["shards"]) == config.shards

    def test_nothing_the_old_endpoints_returned_is_lost(self, stack, ingest):
        config = STACKS[stack]
        center = _center(config, ingest)
        otp, engine = center.otp, center.otp.db.engine
        status = otp.status()
        expected = [
            "audit", "fabric", "policy", "radius", "resolvers", "sms", "storage", "systems",
        ]
        assert sorted(status) == sorted(expected + ["queue"] * bool(ingest))

        # /admin/storage: table sizes, placement, cache, WAL, replication.
        storage = status["storage"]
        assert storage["tables"] == {
            name: otp.db.table(name).count() for name in otp.db.tables()
        }
        assert storage["tables"]["tokens"] == 6
        sharded = find_layer(engine, "shard_sizes")
        if sharded is not None:
            for table in storage["tables"]:
                placed = [shard["tables"][table] for shard in storage["shards"]]
                assert placed == sharded.shard_sizes(table)
        else:
            assert storage["shards"][0]["tables"] == storage["tables"]
        cache = find_layer(engine, "cache_info")
        assert storage["cache"]["capacity"] == config.cache_capacity
        if cache is not None:
            assert storage["cache"] == cache.cache_info()
        logs = [shard["wal"] for shard in storage["shards"]]
        if config.durable:
            walled = [find_layer(shard, "wal") for shard in shards_of(engine)]
            assert logs == [
                {**shard.wal.stats(), "snapshot_every": config.snapshot_every}
                for shard in walled
            ]
            assert all(log["records"] == log["last_lsn"] > 0 for log in logs)
        else:
            assert all(log["records"] == log["bytes"] == 0 for log in logs)
        followers = [shard["replication"]["replicas"] for shard in storage["shards"]]
        assert [len(group) for group in followers] == [config.replicas] * config.shards
        for shard, group in zip(storage["shards"], followers):
            assert shard["replication"]["promotions"] == 0
            assert shard["replication"]["crashed_node"] is None
            for replica in group:
                assert replica["caught_up"]
                assert replica["applied_lsn"] == shard["wal"]["last_lsn"]

        # /admin/policy, /admin/resolvers, /admin/queue: the subsystems' own.
        assert status["policy"] == {
            **otp.policy.snapshot(),
            "concurrency": {"lock_stripes": otp.pipeline.locks.stripes},
        }
        assert status["resolvers"] == center.resolver_chain.snapshot()
        # One cache shape, whichever tier keeps the cache (or none does).
        assert sorted(status["resolvers"]["cache"]) == sorted(storage["cache"])
        stampede = center.system("stampede")
        assert status["systems"] == {
            "stampede": {
                **stampede.policy.snapshot(),
                "nodes": {node.hostname: node.snapshot() for node in stampede.daemons},
                "radius": {
                    node.hostname: client.snapshot()
                    for node, client in zip(stampede.daemons, stampede.radius_clients)
                },
            }
        }
        assert status["systems"]["stampede"]["ladder"]["configured_mode"] == "paired"
        assert status["audit"] == {
            "records": len(otp.audit),
            "latest_timestamp": otp.audit.entries()[-1].timestamp,
            "honeytoken_alarms": 0,
        }
        assert status["radius"] == {
            server.name: server.snapshot() for server in center.radius_servers
        }
        assert status["sms"] == center.sms_gateway.snapshot()
        assert status["fabric"] == center.fabric.snapshot()
        assert status["fabric"]["sent"] == status["fabric"]["delivered"] == 0
        assert status["fabric"]["listeners"] == len(center.radius_servers)
        if ingest:
            assert status["queue"] == center.ingest_queue.snapshot()
            assert status["queue"]["completed_total"] == 6
        for name, section in status.items():
            assert otp.status(name) == section


class TestBareServer:
    def test_sections_are_what_was_wired(self):
        server = OTPServer(rng=random.Random(1))
        assert sorted(server.status()) == ["audit", "policy", "storage"]
        assert server.status("audit") == {
            "records": 0, "latest_timestamp": None, "honeytoken_alarms": 0,
        }
        for missing in ("queue", "radius", "resolvers", "systems", "sms", "fabric", "nonsense", ""):
            with pytest.raises(NotFoundError, match="no status section"):
                server.status(missing)

    def test_ready_engines_describe_themselves(self, reference):
        """A hand-built engine (no ``build_engine``) reports the same shape."""
        for engine in (
            InMemoryEngine(),
            WALEngine(InMemoryEngine()),
            ShardedEngine([InMemoryEngine() for _ in range(3)]),
            ShardedEngine([WALEngine(), WALEngine()]),
        ):
            server = OTPServer(rng=random.Random(1), storage=engine)
            server.enroll_soft("alice")
            storage = server.status("storage")
            assert_same_keys(storage, reference)
            assert storage["tables"] == {"tokens": 1, "challenges": 0}
            assert sum(s["tables"]["tokens"] for s in storage["shards"]) == 1


class TestAdminRoute:
    @pytest.fixture
    def center(self):
        return _center(STACKS["sharded-wal"], True)

    @pytest.fixture
    def api(self, center):
        api = AdminAPI(center.otp, rng=random.Random(2))
        api.add_admin("portal", "s3cret")
        return api

    @pytest.fixture
    def client(self, api):
        return AdminAPIClient(api, "portal", "s3cret", rng=random.Random(3))

    def test_whole_view_and_each_section(self, center, client):
        body = client.call("GET", "/admin/status")
        assert body == center.otp.status()
        for name in body:
            assert client.call("GET", "/admin/status", {"section": name}) == body[name]

    def test_unwired_section_is_404(self, api, client):
        challenge = api.request("GET", "/admin/status").challenge
        creds = client._digest.respond(challenge, "GET", "/admin/status")
        response = api.request(
            "GET", "/admin/status", {"section": "nonsense"}, credentials=creds
        )
        assert response.status == 404
        assert response.body == {"error": "no status section 'nonsense'"}

    def test_section_must_be_a_string(self, client):
        for section in (["storage"], {"storage": 1}, 7):
            with pytest.raises(ValidationError, match="must be a string"):
                client.call("GET", "/admin/status", {"section": section})

    def test_requires_digest_credentials(self, api):
        for params in (None, {"section": "storage"}):
            response = api.request("GET", "/admin/status", params)
            assert response.status == 401 and response.challenge is not None

    @pytest.mark.parametrize("path", ["storage", "policy", "queue", "resolvers"])
    def test_retired_routes_are_gone(self, client, path):
        with pytest.raises(ValidationError, match="no route"):
            client.call("GET", f"/admin/{path}")


class TestSubcommand:
    """``python -m repro status``: the same dict, after one fixed scenario."""

    def _run(self, capsys, *args):
        code = main(["status", *args])
        captured = capsys.readouterr()
        return code, (json.loads(captured.out) if captured.out else None), captured.err

    def test_whole_view_on_the_production_shape(self, capsys, reference):
        code, view, _ = self._run(capsys, "--json", "--shards", "2", "--replicas", "1")
        assert code == 0
        assert sorted(view) == [
            "audit", "fabric", "policy", "queue", "radius", "resolvers", "sms",
            "storage", "systems",
        ]
        assert_same_keys(view["storage"], reference)
        assert view["resolvers"]["cache"]["hits"] > 0
        assert view["resolvers"]["resolvers"]["federated"]["stats"]["hits"] == 1
        lanes = view["queue"]["classes"]
        assert lanes["interactive"]["completed"] == 3 and lanes["batch"]["completed"] == 20
        assert view["queue"]["shed_total"] == 0

    def test_one_section_and_the_ladder_flags(self, capsys):
        code, systems, _ = self._run(
            capsys, "systems", "--mode", "countdown", "--deadline", "2016-11-01"
        )
        assert code == 0
        assert systems["stampede"]["ladder"]["configured_mode"] == "countdown"
        assert systems["stampede"]["ladder"]["deadline"].startswith("2016-11-01")

    def test_unknown_section_exits_2(self, capsys):
        code, view, err = self._run(capsys, "bogus")
        assert code == 2 and view is None
        assert "no status section 'bogus'" in err

    @pytest.mark.parametrize(
        "argv", [["policy"], ["queue", "--stats"], ["resolvers"], ["storage"], ["storage", "--stats"]]
    )
    def test_retired_subcommands_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        assert "usage: python -m repro" in capsys.readouterr().err
