"""A WAL engine's replicas: log shipping, deterministic promotion,
rejoin-by-replay."""

import pytest

from repro.common.errors import ValidationError
from repro.storage import (
    StorageConfig,
    TableSchema,
    WALEngine,
    build_engine,
    find_layer,
    load_wal,
    replay,
    shards_of,
    state_digest,
)

SCHEMA = TableSchema(
    columns=("id", "name", "secret"),
    primary_key="id",
    unique=("name",),
    indexed=(),
)


def _group(replicas=2, **kwargs):
    group = WALEngine(replicas=replicas, **kwargs)
    group.create_table("t", SCHEMA)
    return group


def _all_caught_up(engine):
    return all(
        replica["caught_up"]
        for shard in engine.describe()["shards"]
        for replica in shard["replication"]["replicas"]
    )


def _fill(engine, start=0, count=10):
    for i in range(start, start + count):
        engine.insert("t", {"id": i, "name": f"n{i}", "secret": bytes([i % 256])})


class TestShipping:
    def test_replicas_track_every_mutation(self):
        group = _group()
        _fill(group)
        group.update("t", 3, {"secret": b"\xff"})
        group.delete("t", 7)
        primary = state_digest(group.inner)
        for replica in group.replicas:
            assert state_digest(replica.engine) == primary
            assert replica.applied_lsn == group.wal.last_lsn

    def test_transactions_ship_atomically(self):
        group = _group()
        with group.transaction():
            group.insert("t", {"id": 1, "name": "a", "secret": b""})
            group.insert("t", {"id": 2, "name": "b", "secret": b""})
        assert all(
            state_digest(r.engine) == state_digest(group.inner)
            for r in group.replicas
        )

    def test_aborted_transaction_ships_nothing(self):
        group = _group()
        _fill(group, count=3)
        head = group.wal.last_lsn
        with pytest.raises(ValidationError):
            with group.transaction():
                group.insert("t", {"id": 50, "name": "x", "secret": b""})
                group.insert("t", {"id": 0, "name": "dup-pk", "secret": b""})
        assert group.wal.last_lsn == head
        assert all(r.applied_lsn == head for r in group.replicas)

    def test_snapshot_records_ship_as_position_only(self):
        group = _group(snapshot_every=3)
        _fill(group, count=7)
        assert group.wal.snapshots >= 1
        for replica in group.replicas:
            assert replica.applied_lsn == group.wal.last_lsn
            assert state_digest(replica.engine) == state_digest(group.inner)


class TestPromotion:
    def test_promotion_preserves_state(self):
        group = _group()
        _fill(group)
        pre = state_digest(group.inner)
        info = group.crash_primary()
        assert info["match"] is True
        assert state_digest(group.inner) == pre
        assert group.promotions == 1

    def test_promotion_is_deterministic_max_lsn_then_lowest_id(self):
        group = _group(replicas=3)
        _fill(group)
        # All replicas equally caught up -> lowest node id (1) wins.
        info = group.crash_primary()
        assert info["new_primary"] == 1

    def test_promoted_primary_takes_writes(self):
        group = _group()
        _fill(group)
        group.crash_primary()
        _fill(group, start=100, count=5)
        assert group.row_count("t") == 15
        assert all(
            r.applied_lsn == group.wal.last_lsn for r in group.replicas
        )

    def test_no_replica_no_promotion(self):
        group = _group(replicas=0)
        _fill(group, count=2)
        with pytest.raises(ValidationError):
            group.crash_primary()

    def test_double_crash_without_rejoin_refused(self):
        group = _group(replicas=2)
        _fill(group, count=2)
        group.crash_primary()
        with pytest.raises(ValidationError):
            group.crash_primary()


class TestRejoin:
    def test_rejoin_catches_up_from_log(self):
        group = _group()
        _fill(group)
        group.crash_primary()
        _fill(group, start=100, count=8)  # writes the dead node never saw
        info = group.rejoin()
        assert info["match"] is True
        rejoined = next(r for r in group.replicas if r.node_id == info["node"])
        assert state_digest(rejoined.engine) == state_digest(group.inner)
        assert rejoined.applied_lsn == group.wal.last_lsn

    def test_rejoin_without_crash_refused(self):
        group = _group()
        with pytest.raises(ValidationError):
            group.rejoin()

    def test_crash_promote_rejoin_cycle_repeats(self):
        group = _group()
        _fill(group)
        for round_no in range(3):
            group.crash_primary()
            _fill(group, start=1000 + round_no * 10, count=3)
            assert group.rejoin()["match"] is True
        assert group.promotions == 3
        assert group.row_count("t") == 19


class TestReplicatedEngine:
    def test_build_engine_assembles_replication(self):
        engine = build_engine(StorageConfig(shards=2, replicas=2))
        assert all(find_layer(shard, "crash_primary") for shard in shards_of(engine))
        shards = engine.describe()["shards"]
        assert len(shards) == 2
        assert [len(s["replication"]["replicas"]) for s in shards] == [2, 2]

    def test_replicas_imply_durability(self):
        assert StorageConfig(replicas=1).durable
        assert StorageConfig(durability=True).durable
        assert not StorageConfig().durable

    def test_cross_shard_behaviour_survives_promotion(self):
        engine = build_engine(StorageConfig(shards=3, replicas=2))
        engine.create_table("t", SCHEMA)
        _fill(engine, count=30)
        groups = shards_of(engine)
        digests = [group.state_digest() for group in groups]
        for group in groups:
            assert group.crash_primary()["match"] is True
        assert [group.state_digest() for group in groups] == digests
        assert engine.row_count("t") == 30
        # Unique routing still enforced across shards after promotions.
        with pytest.raises(ValidationError):
            engine.insert("t", {"id": 999, "name": "n5", "secret": b""})
        for group in groups:
            assert group.rejoin()["match"] is True
        assert _all_caught_up(engine)
        assert [s["replication"]["promotions"] for s in engine.describe()["shards"]] == [1] * 3

    def test_replication_stats_shape(self):
        engine = build_engine(StorageConfig(shards=2, replicas=1))
        engine.create_table("t", SCHEMA)
        _fill(engine, count=4)
        shards = engine.describe()["shards"]
        assert len(shards) == 2
        for shard, group in zip(shards, shards_of(engine)):
            assert shard["tables"] == {"t": group.row_count("t")}
            assert shard["wal"] == {**group.wal.stats(), "snapshot_every": 0}
            assert shard["replication"] == {
                "primary": 0,
                "promotions": 0,
                "crashed_node": None,
                "replicas": [
                    {
                        "node": 1,
                        "applied_lsn": group.wal.last_lsn,
                        "caught_up": True,
                    }
                ],
            }

    def test_status_tracks_a_crashed_node(self):
        group = _group(replicas=2)
        _fill(group)
        group.crash_primary()
        replication = group.describe()["shards"][0]["replication"]
        assert replication["primary"] == group.primary_id == 1
        assert replication["crashed_node"] == 0 and replication["promotions"] == 1
        assert [r["node"] for r in replication["replicas"]] == [2]

    def test_wal_files_per_shard(self, tmp_path):
        engine = build_engine(StorageConfig(shards=2, replicas=1, wal_dir=str(tmp_path)))
        engine.create_table("t", SCHEMA)
        _fill(engine, count=6)
        for group in shards_of(engine):
            group.wal.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard0.wal",
            "shard1.wal",
        ]


class TestFileBackedGroups:
    """With ``wal_dir`` the shard's file is its log: promotion catches up
    from it and a rejoining node is rebuilt by replaying it."""

    def test_crash_write_rejoin_replays_the_file(self, tmp_path):
        engine = build_engine(
            StorageConfig(shards=2, replicas=1, wal_dir=str(tmp_path), snapshot_every=50)
        )
        engine.create_table("t", SCHEMA)
        _fill(engine, count=120)
        group = shards_of(engine)[0]
        crashed = group.crash_primary()
        _fill(engine, start=120, count=80)
        rejoined = group.rejoin()
        assert crashed["match"] is True and rejoined["match"] is True
        records, dropped = load_wal(str(tmp_path / "shard0.wal"))
        assert dropped == 0 and records[-1]["lsn"] == rejoined["lsn"]
        assert rejoined["caught_up_records"] == len(records)
        assert state_digest(replay(records)) == rejoined["primary_digest"]
        assert group.wal.snapshots >= 1
        assert _all_caught_up(engine)
