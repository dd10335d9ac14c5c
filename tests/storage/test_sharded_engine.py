"""Sharded engine: placement, routed lookups, global constraints, atomicity."""

import threading
import time

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.storage import HashRing, InMemoryEngine, ShardedEngine, TableSchema

#: How long a test waits on another thread before calling it stuck.
PATIENCE = 5.0


def _schema():
    return TableSchema(
        columns=("serial", "user_id", "type", "failcount"),
        primary_key="serial",
        unique=("user_id",),
        indexed=("type",),
    )


@pytest.fixture
def engine():
    e = ShardedEngine([InMemoryEngine() for _ in range(4)])
    e.create_table("tokens", _schema())
    return e


def _fill(engine, n=40):
    for i in range(n):
        engine.insert(
            "tokens",
            {"serial": f"S{i}", "user_id": f"u{i}", "type": ("soft", "sms")[i % 2]},
        )


class TestHashRing:
    def test_deterministic_and_in_range(self):
        ring = HashRing(4)
        picks = [ring.shard_for(f"key{i}") for i in range(200)]
        assert picks == [ring.shard_for(f"key{i}") for i in range(200)]
        assert set(picks) <= {0, 1, 2, 3}

    def test_spreads_keys(self):
        ring = HashRing(4)
        counts = [0] * 4
        for i in range(2000):
            counts[ring.shard_for(f"tokens/S{i}")] += 1
        assert min(counts) > 200  # no dead shard, no 10x skew

    def test_the_engine_places_a_row_where_the_ring_does(self, engine):
        """``_shard_of`` inlines the ring's hash: the same shard for every key,
        a lone surrogate and a bytes pk among them."""
        ring = HashRing(4)
        for table, pk in [("tokens", f"S{i}") for i in range(500)] + [
            ("challenges", "uid-\udc80"), ("tokens", b"\x00\xff"), ("t", 7), ("t", None),
        ]:
            assert engine._shard_of(table, pk) == ring.shard_for(f"{table}/{pk!r}")

    def test_consistency_on_growth(self):
        """Growing the ring moves only a minority of keys."""
        small, large = HashRing(4), HashRing(5)
        keys = [f"tokens/S{i}" for i in range(2000)]
        moved = sum(1 for k in keys if small.shard_for(k) != large.shard_for(k))
        assert moved < len(keys) * 0.5


class TestShardedCRUD:
    def test_rows_distributed_and_recombined(self, engine):
        _fill(engine)
        assert engine.row_count("tokens") == 40
        sizes = engine.shard_sizes("tokens")
        assert sum(sizes) == 40 and all(s > 0 for s in sizes)
        assert len(engine.select("tokens")) == 40

    def test_point_reads_route(self, engine):
        _fill(engine)
        assert engine.get("tokens", "S7")["user_id"] == "u7"
        assert engine.exists("tokens", "S7")
        assert not engine.exists("tokens", "S99")
        with pytest.raises(NotFoundError):
            engine.get("tokens", "S99")

    def test_indexed_select_hits_only_owning_shards(self, engine):
        _fill(engine)
        rows = engine.select("tokens", where={"user_id": "u3"})
        assert [r["serial"] for r in rows] == ["S3"]
        assert engine.select("tokens", where={"user_id": "nobody"}) == []
        assert engine.count("tokens", where={"type": "soft"}) == 20

    def test_get_by_unique_routes(self, engine):
        _fill(engine)
        assert engine.get_by_unique("tokens", "user_id", "u11")["serial"] == "S11"
        with pytest.raises(NotFoundError):
            engine.get_by_unique("tokens", "user_id", "ghost")
        with pytest.raises(ValidationError):
            engine.get_by_unique("tokens", "type", "soft")

    def test_unique_enforced_across_shards(self, engine):
        _fill(engine, 20)
        # Whatever shard S999 lands on, u5 already exists somewhere else.
        with pytest.raises(ValidationError, match="unique"):
            engine.insert("tokens", {"serial": "S999", "user_id": "u5"})
        with pytest.raises(ValidationError, match="unique"):
            engine.update("tokens", "S1", {"user_id": "u5"})

    def test_update_maintains_routing(self, engine):
        _fill(engine, 10)
        engine.update("tokens", "S2", {"type": "hard", "user_id": "relabeled"})
        assert engine.count("tokens", where={"type": "hard"}) == 1
        assert engine.get_by_unique("tokens", "user_id", "relabeled")["serial"] == "S2"
        with pytest.raises(NotFoundError):
            engine.get_by_unique("tokens", "user_id", "u2")
        # The freed unique slot is reusable on any shard.
        engine.insert("tokens", {"serial": "S100", "user_id": "u2"})

    def test_delete_maintains_routing(self, engine):
        _fill(engine, 10)
        engine.delete("tokens", "S4")
        assert engine.select("tokens", where={"user_id": "u4"}) == []
        engine.insert("tokens", {"serial": "S200", "user_id": "u4"})

    def test_shard_rows_in_describe(self):
        engine = ShardedEngine([InMemoryEngine() for _ in range(2)])
        engine.create_table("tokens", _schema())
        _fill(engine, 12)
        engine.delete("tokens", "S4")
        placed = [shard["tables"]["tokens"] for shard in engine.describe()["shards"]]
        assert placed == engine.shard_sizes("tokens")
        assert sum(placed) == engine.describe()["tables"]["tokens"] == 11


class TestShardedTransactions:
    def test_commit_spans_shards(self, engine):
        with engine.transaction():
            _fill(engine, 16)
        assert engine.row_count("tokens") == 16

    def test_abort_rolls_back_every_shard(self, engine):
        _fill(engine, 8)
        with pytest.raises(RuntimeError):
            with engine.transaction():
                for i in range(8):
                    engine.delete("tokens", f"S{i}")
                for i in range(20, 30):
                    engine.insert("tokens", {"serial": f"S{i}", "user_id": f"u{i}"})
                raise RuntimeError("boom")
        assert engine.row_count("tokens") == 8
        # Routing index restored: lookups and counts still exact.
        assert engine.get_by_unique("tokens", "user_id", "u3")["serial"] == "S3"
        assert engine.count("tokens", where={"type": "soft"}) == 4
        assert engine.select("tokens", where={"user_id": "u25"}) == []

    def test_concurrent_unique_inserts_single_winner(self):
        engine = ShardedEngine([InMemoryEngine() for _ in range(4)])
        engine.create_table("tokens", _schema())
        errors = []
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            try:
                engine.insert("tokens", {"serial": f"S{i}", "user_id": "contested"})
            except ValidationError:
                errors.append(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(errors) == 7  # exactly one claim won
        assert engine.count("tokens") == 1

    def test_concurrent_unique_updates_single_winner(self):
        """Two rows on different shards updated to one unique value: the first
        update claims it before its shard write, so the second is refused
        while the first is still inside that write, not let through."""
        entered, go = threading.Semaphore(0), threading.Event()

        class Held(InMemoryEngine):
            """Holds each update inside its shard write until ``go``."""

            def update(self, table, pk, changes):
                entered.release()
                assert go.wait(PATIENCE)
                return super().update(table, pk, changes)

        engine = ShardedEngine([Held() for _ in range(4)])
        engine.create_table("tokens", _schema())
        first = "S0"
        second = next(
            f"S{i}" for i in range(1, 100)
            if engine._shard_of("tokens", f"S{i}") != engine._shard_of("tokens", first)
        )
        engine.insert("tokens", {"serial": first, "user_id": "a"})
        engine.insert("tokens", {"serial": second, "user_id": "b"})
        outcomes = []

        def update(serial):
            try:
                engine.update("tokens", serial, {"user_id": "contested"})
                outcomes.append("updated")
            except ValidationError:
                outcomes.append("refused")

        threads = [threading.Thread(target=update, args=(s,)) for s in (first, second)]
        threads[0].start()
        assert entered.acquire(timeout=PATIENCE)  # the first is in its write
        threads[1].start()
        # The second is refused at once, or (the race) enters its own write.
        deadline = time.monotonic() + PATIENCE
        while threads[1].is_alive() and not entered.acquire(timeout=0.01):
            assert time.monotonic() < deadline, "the second update is stuck"
        go.set()
        for t in threads:
            t.join(PATIENCE)
        assert sorted(outcomes) == ["refused", "updated"]
        holders = [
            row["serial"]
            for shard in engine.shards
            for row in shard.select("tokens")
            if row["user_id"] == "contested"
        ]
        assert holders == [first]
        assert [r["serial"] for r in engine.select(
            "tokens", where={"user_id": "contested"}
        )] == [first]
        assert engine.get("tokens", second)["user_id"] == "b"

    def test_threaded_disjoint_writes(self, engine):
        def worker(base):
            for i in range(25):
                serial = f"T{base}-{i}"
                engine.insert("tokens", {"serial": serial, "user_id": serial})
                engine.update("tokens", serial, {"failcount": i})

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert engine.row_count("tokens") == 100
        assert engine.get("tokens", "T2-24")["failcount"] == 24


class TestConstruction:
    def test_engines_can_be_passed_explicitly(self):
        shards = [InMemoryEngine(), InMemoryEngine()]
        engine = ShardedEngine(shards)
        engine.create_table("t", TableSchema(("k",), "k"))
        engine.insert("t", {"k": 1})
        assert sum(s.row_count("t") for s in shards) == 1

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine([])
