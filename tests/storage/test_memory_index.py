"""The in-memory engine's indices answer exactly what a scan answers.

A model table — a dict of full rows, kept by the test itself — is scanned
brute-force after every step of a random interleaving of inserts, updates
(indexed values moving onto and off values other rows share), deletes and
``transaction()`` blocks that commit, abort, or nest as savepoints.  Every
``select``, ``count`` and ``get_by_unique`` must equal the scan, and every
index must equal one rebuilt from the live rows: a value one row holds is
filed as that row's bare pk, a value several rows share as the set of
their pks, and a value no row holds is not filed at all.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import NotFoundError, ValidationError
from repro.storage import InMemoryEngine, TableSchema

COLUMNS = ("pk", "kind", "owner", "serial", "note")
SCHEMA = TableSchema(
    COLUMNS, "pk", unique=("serial",), indexed=("kind", "owner")
)
PKS = list(range(6))
KINDS = ["soft", "sms", None]
OWNERS = ["u1", "u2", "u3"]
SERIALS = ["S1", "S2", "S3", None]

column_values = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(KINDS),
        "owner": st.sampled_from(OWNERS),
        "serial": st.sampled_from(SERIALS),
        "note": st.sampled_from(["a", "b"]),
    },
)
leaf = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(PKS), column_values),
    st.tuples(st.just("update"), st.sampled_from(PKS), column_values),
    st.tuples(st.just("delete"), st.sampled_from(PKS)),
)
step = st.recursive(
    leaf,
    lambda inner: st.tuples(st.just("txn"), st.lists(inner, max_size=6), st.booleans()),
    max_leaves=12,
)


class Abort(Exception):
    pass


def clashes(model, pk, serial):
    return serial is not None and any(
        row["serial"] == serial for key, row in model.items() if key != pk
    )


def filed(pks):
    """How an index files a value held by ``pks``."""
    return next(iter(pks)) if len(pks) == 1 else set(pks)


def assert_agrees(engine, model):
    table = engine._table("t")
    for col in SCHEMA.indexed:
        holders = {}
        for pk, row in model.items():
            holders.setdefault(row[col], set()).add(pk)
        assert table.indices[col] == {v: filed(pks) for v, pks in holders.items()}, col
    assert table.unique["serial"] == {
        row["serial"]: pk for pk, row in model.items() if row["serial"] is not None
    }
    wheres = [{}]
    wheres += [{"pk": pk} for pk in PKS]
    wheres += [{"kind": kind} for kind in KINDS]
    wheres += [{"owner": owner} for owner in OWNERS]
    wheres += [{"serial": serial} for serial in SERIALS[:-1]]  # a NULL is not filed
    wheres += [{"kind": kind, "owner": "u1"} for kind in KINDS]
    wheres += [{"note": "a"}, {"owner": "u2", "note": None}]
    for where in wheres:
        expect = sorted(
            (r for r in model.values() if all(r[c] == v for c, v in where.items())),
            key=lambda r: r["pk"],
        )
        got = engine.select("t", where=where)
        assert sorted(got, key=lambda r: r["pk"]) == expect, where
        assert engine.count("t", where=where) == len(expect), where
        # A returned row is the caller's copy: changing it changes nothing.
        for row in got:
            row.update(dict.fromkeys(COLUMNS, "mutated"))
    by_owner = engine.select("t", predicate=lambda r: r["owner"] == "u1")
    assert sorted(r["pk"] for r in by_owner) == sorted(
        pk for pk, r in model.items() if r["owner"] == "u1"
    )
    for serial in SERIALS[:-1]:
        holder = [r for r in model.values() if r["serial"] == serial]
        if holder:
            assert engine.get_by_unique("t", "serial", serial) == holder[0]
        else:
            with pytest.raises(NotFoundError):
                engine.get_by_unique("t", "serial", serial)
    for pk, row in model.items():
        assert engine.get("t", pk) == row
        assert list(engine.get("t", pk)) == list(COLUMNS)  # schema column order


def apply(engine, model, step):
    kind = step[0]
    if kind == "insert":
        _, pk, values = step
        row = {**dict.fromkeys(COLUMNS), **values, "pk": pk}
        if pk in model or clashes(model, pk, row["serial"]):
            with pytest.raises(ValidationError):
                engine.insert("t", {"pk": pk, **values})
        else:
            stored = engine.insert("t", {"pk": pk, **values})
            assert stored == row
            stored["kind"] = "mutated"
            model[pk] = row
    elif kind == "update":
        _, pk, values = step
        if pk not in model:
            with pytest.raises(NotFoundError):
                engine.update("t", pk, values)
        elif clashes(model, pk, values.get("serial")):
            with pytest.raises(ValidationError):
                engine.update("t", pk, values)
        else:
            model[pk].update(values)
            assert engine.update("t", pk, values) == model[pk]
    elif kind == "delete":
        _, pk = step
        if pk not in model:
            with pytest.raises(NotFoundError):
                engine.delete("t", pk)
        else:
            assert engine.delete("t", pk) == model.pop(pk)
    else:
        _, inner, commit = step
        before = copy.deepcopy(model)
        try:
            with engine.transaction():
                for sub in inner:
                    apply(engine, model, sub)
                    assert_agrees(engine, model)
                if not commit:
                    raise Abort()
        except Abort:
            model.clear()
            model.update(before)
    assert_agrees(engine, model)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(step, max_size=12))
def test_indices_equal_a_brute_force_scan_after_every_step(steps):
    engine, model = InMemoryEngine(), {}
    engine.create_table("t", SCHEMA)
    for one in steps:
        apply(engine, model, one)
    for pk in list(model):
        engine.delete("t", pk)
        del model[pk]
    assert_agrees(engine, model)
    table = engine._table("t")
    assert table.indices == {"kind": {}, "owner": {}} and table.unique == {"serial": {}}


def test_a_shared_value_goes_back_to_a_bare_pk():
    engine = InMemoryEngine()
    engine.create_table("t", SCHEMA)
    engine.insert("t", {"pk": 1, "owner": "u1"})
    engine.insert("t", {"pk": 2, "owner": "u1"})
    owners = engine._table("t").indices["owner"]
    assert owners == {"u1": {1, 2}}
    engine.update("t", 2, {"owner": "u2"})
    assert owners == {"u1": 1, "u2": 2}
    with pytest.raises(Abort):
        with engine.transaction():
            engine.update("t", 1, {"owner": "u2"})
            assert owners == {"u2": {1, 2}}
            raise Abort()
    assert owners == {"u1": 1, "u2": 2}
