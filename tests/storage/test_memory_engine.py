"""In-memory engine: CRUD, indices, and undo-log transaction semantics."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

import repro.storage.memory as memory_module
from repro.common.errors import NotFoundError, ValidationError
from repro.otpserver.server import _TOKEN_COLUMNS
from repro.storage import InMemoryEngine, TableSchema


@pytest.fixture
def engine():
    e = InMemoryEngine()
    e.create_table(
        "tokens",
        TableSchema(
            columns=("serial", "user_id", "type", "active"),
            primary_key="serial",
            unique=("user_id",),
            indexed=("type",),
        ),
    )
    return e


class TestCRUD:
    def test_insert_get_roundtrip(self, engine):
        engine.insert("tokens", {"serial": "S1", "user_id": "u1", "type": "soft"})
        assert engine.get("tokens", "S1")["user_id"] == "u1"
        assert engine.exists("tokens", "S1")
        assert engine.row_count("tokens") == 1

    def test_rows_are_copies(self, engine):
        engine.insert("tokens", {"serial": "S1", "active": True})
        row = engine.get("tokens", "S1")
        row["active"] = False
        assert engine.get("tokens", "S1")["active"] is True

    def test_missing_table(self, engine):
        with pytest.raises(NotFoundError):
            engine.get("nope", "S1")

    def test_duplicate_table(self, engine):
        with pytest.raises(ValidationError):
            engine.create_table("tokens", TableSchema(("x",), "x"))

    def test_delete_returns_row(self, engine):
        engine.insert("tokens", {"serial": "S1", "user_id": "u1"})
        assert engine.delete("tokens", "S1")["user_id"] == "u1"
        assert not engine.exists("tokens", "S1")

    def test_unique_lookup_and_violation(self, engine):
        engine.insert("tokens", {"serial": "S1", "user_id": "u1"})
        assert engine.get_by_unique("tokens", "user_id", "u1")["serial"] == "S1"
        with pytest.raises(ValidationError, match="unique"):
            engine.insert("tokens", {"serial": "S2", "user_id": "u1"})

    def test_indexed_count_is_exact(self, engine):
        for i, kind in enumerate(["soft", "soft", "sms"]):
            engine.insert("tokens", {"serial": f"S{i}", "user_id": f"u{i}", "type": kind})
        assert engine.count("tokens", where={"type": "soft"}) == 2
        assert engine.count("tokens", where={"type": "sms"}) == 1
        assert engine.count("tokens", where={"type": "hard"}) == 0
        assert engine.count("tokens", where={"serial": "S0"}) == 1
        assert engine.count("tokens", where={"user_id": "u1"}) == 1

    def test_select_by_primary_key_where(self, engine):
        engine.insert("tokens", {"serial": "S1", "type": "soft"})
        engine.insert("tokens", {"serial": "S2", "type": "soft"})
        assert len(engine.select("tokens", where={"serial": "S1"})) == 1


class TestIndexHoldsLiveValuesOnly:
    """A removed row takes its index entries with it: the index of a table
    whose rows come and go does not grow with every value ever stored.  A
    value one row holds is filed as that row's bare pk."""

    @pytest.fixture
    def tokens(self):
        e = InMemoryEngine()
        e.create_table(
            "tokens",
            TableSchema(("serial", "user_id", "type"), "serial", indexed=("user_id", "type")),
        )
        return e

    def test_deleted_users_leave_no_index_keys(self, tokens):
        tokens.insert("tokens", {"serial": "keep", "user_id": "kept", "type": "soft"})
        for n in range(50):
            tokens.insert("tokens", {"serial": f"S{n}", "user_id": f"u{n}", "type": "sms"})
            tokens.delete("tokens", f"S{n}")
        indices = tokens._table("tokens").indices
        assert indices["user_id"] == {"kept": "keep"}
        assert indices["type"] == {"soft": "keep"}
        assert tokens.select("tokens", where={"user_id": "u7"}) == []
        assert tokens.count("tokens", where={"user_id": "u7"}) == 0
        assert tokens.count("tokens", where={"type": "sms"}) == 0
        assert tokens.count("tokens", where={"user_id": "kept"}) == 1
        assert [row["serial"] for row in tokens.select("tokens")] == ["keep"]

    def test_moved_and_rolled_back_rows_leave_no_index_keys(self, tokens):
        tokens.insert("tokens", {"serial": "S1", "user_id": "u1", "type": "soft"})
        tokens.update("tokens", "S1", {"user_id": "u2"})
        with pytest.raises(RuntimeError):
            with tokens.transaction():
                tokens.insert("tokens", {"serial": "S2", "user_id": "u3", "type": "hard"})
                tokens.update("tokens", "S1", {"user_id": "u4"})
                raise RuntimeError("abort")
        indices = tokens._table("tokens").indices
        assert indices["user_id"] == {"u2": "S1"}
        assert indices["type"] == {"soft": "S1"}
        assert tokens.select("tokens", where={"user_id": "u2"})[0]["serial"] == "S1"
        assert tokens.count("tokens", where={"user_id": "u1"}) == 0


class TestFootprint:
    def test_token_table_bytes_per_row(self):
        """A token row is one list, and a user's one token is filed in the
        ``user_id`` index as its bare serial, not in a set of one."""
        tracemalloc.start()
        try:
            engine = InMemoryEngine()
            engine.create_table(
                "tokens",
                TableSchema(_TOKEN_COLUMNS, "serial", indexed=("user_id", "token_type")),
            )
            for n in range(5_000):
                engine.insert(
                    "tokens",
                    {
                        "serial": f"TOTP{n:08d}",
                        "user_id": f"{n:06d}",
                        "token_type": "soft",
                        "active": True,
                        "failcount": 0,
                    },
                )
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, memory_module.__file__)]
            )
        finally:
            tracemalloc.stop()
        assert engine.row_count("tokens") == 5_000
        assert sum(stat.size for stat in held.statistics("filename")) <= 400 * 5_000


class TestUndoLogTransactions:
    def test_commit_keeps_writes(self, engine):
        with engine.transaction():
            engine.insert("tokens", {"serial": "S1"})
        assert engine.exists("tokens", "S1")

    def test_abort_undoes_insert_update_delete(self, engine):
        engine.insert("tokens", {"serial": "S0", "user_id": "u0", "type": "soft"})
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.insert("tokens", {"serial": "S1", "user_id": "u1"})
                engine.update("tokens", "S0", {"type": "sms", "user_id": "u9"})
                engine.delete("tokens", "S0")
                raise RuntimeError("boom")
        assert not engine.exists("tokens", "S1")
        row = engine.get("tokens", "S0")
        assert row["type"] == "soft" and row["user_id"] == "u0"

    def test_abort_restores_unique_and_secondary_indices(self, engine):
        engine.insert("tokens", {"serial": "S0", "user_id": "u0", "type": "soft"})
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.delete("tokens", "S0")
                engine.insert("tokens", {"serial": "S1", "user_id": "u0", "type": "sms"})
                raise RuntimeError("boom")
        # u0 must map back to S0, and the type index must be consistent.
        assert engine.get_by_unique("tokens", "user_id", "u0")["serial"] == "S0"
        assert engine.count("tokens", where={"type": "soft"}) == 1
        assert engine.count("tokens", where={"type": "sms"}) == 0
        with pytest.raises(ValidationError, match="unique"):
            engine.insert("tokens", {"serial": "S2", "user_id": "u0"})

    def test_nested_transactions_are_savepoints(self, engine):
        with engine.transaction():
            engine.insert("tokens", {"serial": "OUTER"})
            with pytest.raises(RuntimeError):
                with engine.transaction():
                    engine.insert("tokens", {"serial": "INNER"})
                    raise RuntimeError("inner boom")
            assert not engine.exists("tokens", "INNER")
            assert engine.exists("tokens", "OUTER")
        assert engine.exists("tokens", "OUTER")

    def test_outer_abort_rolls_back_committed_inner(self, engine):
        with pytest.raises(RuntimeError):
            with engine.transaction():
                with engine.transaction():
                    engine.insert("tokens", {"serial": "INNER"})
                raise RuntimeError("outer boom")
        assert not engine.exists("tokens", "INNER")

    def test_log_cleared_after_commit(self, engine):
        with engine.transaction():
            engine.insert("tokens", {"serial": "S1"})
        assert engine._log == []

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=25, unique=True))
    def test_abort_is_exact_inverse(self, keys):
        engine = InMemoryEngine()
        engine.create_table("t", TableSchema(("k", "v"), "k", indexed=("v",)))
        for k in keys[: len(keys) // 2 + 1]:
            engine.insert("t", {"k": k, "v": k % 3})
        before = sorted((r["k"], r["v"]) for r in engine.select("t"))
        with pytest.raises(RuntimeError):
            with engine.transaction():
                for k in keys:
                    if engine.exists("t", k):
                        engine.update("t", k, {"v": 99})
                        engine.delete("t", k)
                    else:
                        engine.insert("t", {"k": k, "v": k % 3})
                raise RuntimeError("boom")
        after = sorted((r["k"], r["v"]) for r in engine.select("t"))
        assert after == before
        # Secondary index agrees with a full scan for every bucket.
        for bucket in (0, 1, 2, 99):
            scan = [r for r in engine.select("t") if r["v"] == bucket]
            assert engine.count("t", where={"v": bucket}) == len(scan)


class TestLatency:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            InMemoryEngine(latency=-1.0)

    def test_latency_is_paid_per_op(self):
        engine = InMemoryEngine(latency=0.002)
        engine.create_table("t", TableSchema(("k",), "k"))
        import time

        start = time.perf_counter()
        for i in range(5):
            engine.insert("t", {"k": i})
        assert time.perf_counter() - start >= 0.01
