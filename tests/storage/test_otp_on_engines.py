"""The OTP path on every engine stack: same behaviour, new observability.

The storage engine is pluggable exactly when the validation workflows are
indistinguishable across stacks — the tests here run the enrollment /
validate / lockout / unpair lifecycle against the default, sharded and
cached configurations and assert identical outcomes, then check the
stats/metrics surfaces the refactor added.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.crypto.totp import totp_at
from repro.otpserver import OTPServer, ValidateStatus
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.storage import StorageConfig, find_layer
from repro.telemetry import Registry, render_status_text, render_text

STACKS = [
    pytest.param(None, id="default"),
    pytest.param(StorageConfig(shards=4), id="sharded"),
    pytest.param(StorageConfig(cache_capacity=64), id="cached"),
    pytest.param(StorageConfig(shards=3, cache_capacity=64), id="sharded+cached"),
]


def _server(storage, telemetry=None):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    return (
        OTPServer(
            clock=clock, rng=random.Random(1), telemetry=telemetry, storage=storage
        ),
        clock,
    )


@pytest.mark.parametrize("storage", STACKS)
class TestLifecycleOnEveryStack:
    def test_soft_token_validate_and_replay(self, storage):
        server, clock = _server(storage)
        _, secret = server.enroll_soft("u1")
        code = totp_at(secret, clock.now())
        assert server.validate("u1", code).status is ValidateStatus.OK
        assert server.validate("u1", code).status is ValidateStatus.REJECT  # replay
        clock.advance(31)
        assert server.validate("u1", totp_at(secret, clock.now())).ok

    def test_lockout_and_reset(self, storage):
        server, _ = _server(storage)
        server.enroll_soft("u1")
        for _ in range(server.config.lockout_threshold):
            server.validate("u1", "000000")
        assert server.validate("u1", "000000").status is ValidateStatus.LOCKED
        assert server.is_locked("u1")
        server.clear_failcount("u1")
        assert not server.is_locked("u1")

    def test_unpair_removes_everything(self, storage):
        server, _ = _server(storage)
        server.enroll_sms("u1", "+1-512-555-0001")
        server.validate("u1", None)  # outstanding SMS challenge
        assert server.unpair("u1") == 1
        assert not server.has_pairing("u1")
        assert server.validate("u1", "123456").status is ValidateStatus.NO_TOKEN

    def test_token_count_by_type_uses_index(self, storage):
        server, _ = _server(storage)
        for i in range(6):
            server.enroll_soft(f"soft{i}")
        for i in range(3):
            server.enroll_sms(f"sms{i}", f"+1-512-555-{i:04d}")
        server.enroll_static("train0", "424242")
        assert server.token_count_by_type() == {"soft": 6, "sms": 3, "static": 1}


class TestStorageStats:
    def test_sharded_cached_stats_shape(self):
        server, _ = _server(StorageConfig(shards=4, cache_capacity=32))
        for i in range(8):
            server.enroll_soft(f"u{i}")
        stats = server.status("storage")
        assert stats["tables"]["tokens"] == 8
        placed = [shard["tables"]["tokens"] for shard in stats["shards"]]
        assert len(placed) == 4 and sum(placed) == 8
        assert placed == find_layer(server.db.engine, "shard_sizes").shard_sizes("tokens")
        assert stats["cache"] == find_layer(server.db.engine, "cache_info").cache_info()
        assert stats["cache"]["capacity"] == 32

    def test_admin_api_storage_route(self):
        server, _ = _server(StorageConfig(shards=2))
        server.enroll_soft("u1")
        api = AdminAPI(server, rng=random.Random(2))
        api.add_admin("portal", "secret")
        client = AdminAPIClient(api, "portal", "secret", rng=random.Random(3))
        body = client.call("GET", "/admin/status", {"section": "storage"})
        assert body == client.call("GET", "/admin/status")["storage"]
        assert body["tables"]["tokens"] == 1
        assert len(body["shards"]) == 2


class TestStorageTelemetry:
    def test_op_metrics_land_in_server_registry(self):
        registry = Registry()
        server, clock = _server(
            StorageConfig(shards=2, cache_capacity=16), telemetry=registry
        )
        _, secret = server.enroll_soft("u1")
        server.validate("u1", totp_at(secret, clock.now()))
        server.validate("u1", totp_at(secret, clock.now()))  # replay reject
        text = render_text(registry.snapshot())
        assert "storage_op_seconds_count" in text
        # Per-shard row counts are state, not events: they scrape from status().
        sizes = find_layer(server.db.engine, "shard_sizes").shard_sizes("tokens")
        placed = [
            f'repro_status{{path="storage.shards.{n}.tables.tokens"}} {rows}'
            for n, rows in enumerate(sizes)
        ]
        assert set(placed) <= set(render_status_text(server.status()).splitlines())
        ops = registry.histogram("storage_op_seconds")
        assert ops.count(op="select", table="tokens") > 0
        assert ops.count(op="update", table="tokens") > 0
