"""Relational store: schema, constraints, indices, transactions."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import NotFoundError, ValidationError
from repro.otpserver.database import Database, TableSchema


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "tokens",
        columns=("serial", "user_id", "type", "active"),
        primary_key="serial",
        unique=("user_id",),
        indexed=("type",),
    )
    return database


class TestSchema:
    def test_pk_must_be_column(self):
        with pytest.raises(ValueError):
            TableSchema(columns=("a",), primary_key="b")

    def test_constraint_columns_validated(self):
        with pytest.raises(ValueError):
            TableSchema(columns=("a",), primary_key="a", unique=("z",))

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(ValidationError):
            db.create_table("tokens", ("x",), "x")

    def test_missing_table(self, db):
        with pytest.raises(NotFoundError):
            db.table("nope")


class TestCRUD:
    def test_insert_and_get(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1", "type": "soft", "active": True})
        assert t.get("S1")["user_id"] == "u1"

    def test_missing_columns_default_none(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1"})
        assert t.get("S1")["type"] is None

    def test_unknown_column_rejected(self, db):
        with pytest.raises(ValidationError):
            db.table("tokens").insert({"serial": "S1", "bogus": 1})

    def test_duplicate_pk_rejected(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1"})
        with pytest.raises(ValidationError, match="duplicate primary key"):
            t.insert({"serial": "S1"})

    def test_missing_pk_rejected(self, db):
        with pytest.raises(ValidationError, match="missing primary key"):
            db.table("tokens").insert({"user_id": "u1"})

    def test_update(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "active": True})
        t.update("S1", {"active": False})
        assert t.get("S1")["active"] is False

    def test_update_missing_row(self, db):
        with pytest.raises(NotFoundError):
            db.table("tokens").update("nope", {"active": False})

    def test_update_pk_rejected(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1"})
        with pytest.raises(ValidationError):
            t.update("S1", {"serial": "S2"})

    def test_delete(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1"})
        t.delete("S1")
        assert not t.exists("S1")
        with pytest.raises(NotFoundError):
            t.delete("S1")

    def test_rows_are_copies(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "active": True})
        row = t.get("S1")
        row["active"] = False
        assert t.get("S1")["active"] is True


class TestConstraintsAndIndices:
    def test_unique_violation_on_insert(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1"})
        with pytest.raises(ValidationError, match="unique"):
            t.insert({"serial": "S2", "user_id": "u1"})

    def test_unique_violation_on_update(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1"})
        t.insert({"serial": "S2", "user_id": "u2"})
        with pytest.raises(ValidationError, match="unique"):
            t.update("S2", {"user_id": "u1"})

    def test_unique_lookup(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1"})
        assert t.get_by_unique("user_id", "u1")["serial"] == "S1"
        with pytest.raises(NotFoundError):
            t.get_by_unique("user_id", "u9")

    def test_unique_freed_after_delete(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1"})
        t.delete("S1")
        t.insert({"serial": "S2", "user_id": "u1"})  # no violation

    def test_unique_freed_after_update(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1"})
        t.update("S1", {"user_id": "u2"})
        t.insert({"serial": "S2", "user_id": "u1"})

    def test_indexed_select(self, db):
        t = db.table("tokens")
        for i, kind in enumerate(["soft", "soft", "sms"]):
            t.insert({"serial": f"S{i}", "user_id": f"u{i}", "type": kind})
        assert len(t.select(where={"type": "soft"})) == 2
        assert t.count(where={"type": "sms"}) == 1

    def test_index_maintained_on_update(self, db):
        t = db.table("tokens")
        t.insert({"serial": "S1", "user_id": "u1", "type": "soft"})
        t.update("S1", {"type": "sms"})
        assert t.select(where={"type": "soft"}) == []
        assert len(t.select(where={"type": "sms"})) == 1

    def test_predicate_select(self, db):
        t = db.table("tokens")
        for i in range(5):
            t.insert({"serial": f"S{i}", "user_id": f"u{i}", "active": i % 2 == 0})
        assert len([r for r in t.select() if r["active"]]) == 3


class TestTransactions:
    def test_commit(self, db):
        with db.transaction():
            db.table("tokens").insert({"serial": "S1"})
        assert db.table("tokens").exists("S1")

    def test_rollback_on_exception(self, db):
        db.table("tokens").insert({"serial": "S0"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.table("tokens").insert({"serial": "S1"})
                db.table("tokens").delete("S0")
                raise RuntimeError("boom")
        assert db.table("tokens").exists("S0")
        assert not db.table("tokens").exists("S1")

    def test_rollback_restores_unique_index(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.table("tokens").insert({"serial": "S1", "user_id": "u1"})
                raise RuntimeError("boom")
        # The uniqueness slot must be free again.
        db.table("tokens").insert({"serial": "S2", "user_id": "u1"})

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True))
    def test_insert_select_consistency(self, keys):
        database = Database()
        t = database.create_table("t", ("k", "v"), "k")
        for k in keys:
            t.insert({"k": k, "v": k * 2})
        assert len(t.select()) == len(keys)
        for k in keys:
            assert t.get(k)["v"] == k * 2
