"""Write-ahead log: recovery determinism as a property, not an example.

The Hypothesis suites drive a :class:`WALEngine` with arbitrary mutation
sequences (including transactions and mixed bytes/str/int values) and
assert the durability contract:

* **replay reconstructs** — rebuilding from the log always yields the live
  engine's exact state (equal SHA-256 state digests), and doing it twice
  yields the same engine (idempotence);
* **any prefix is a valid state** — a log truncated at any record boundary
  (a crash mid-run) replays without error into the state the engine had at
  that point;
* **a crash between apply and append never corrupts** — losing the final,
  unlogged record recovers exactly the state before that operation;
* **torn tails and corruption are detected** — a half-written or
  bit-flipped line stops :func:`load_wal` at the last intact record.
"""

import json
import os
import tempfile
import tracemalloc
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigurationError, ValidationError
from repro.storage import (
    InMemoryEngine,
    TableSchema,
    WALEngine,
    WriteAheadLog,
    load_wal,
    replay,
    state_digest,
)
from repro.storage import wal as wal_module
from repro.storage.wal import capture_state, decode_row, encode_row

SCHEMA = TableSchema(
    columns=("id", "val", "blob"),
    primary_key="id",
    unique=(),
    indexed=("val",),
)

#: One mutation: (op, pk, value).  The interpreter below makes every
#: sequence applicable (skip inserts of live pks, updates/deletes of dead
#: ones), so shrinking stays simple and no sequence is rejected.
_VALUES = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.none(),
)
_OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]),
              st.integers(min_value=0, max_value=7), _VALUES),
    max_size=40,
)


def _build(ops, snapshot_every=0, path=None):
    """Apply an op sequence through a WALEngine; returns the engine."""
    engine = WALEngine(
        InMemoryEngine(), snapshot_every=snapshot_every, path=path
    )
    engine.create_table("t", SCHEMA)
    _apply_ops(engine, ops)
    return engine

def _apply_ops(engine, ops):
    live = {row["id"] for row in engine.select("t")}
    for op, pk, value in ops:
        if op == "insert" and pk not in live:
            engine.insert("t", {"id": pk, "val": value, "blob": b"\x00" * (pk + 1)})
            live.add(pk)
        elif op == "update" and pk in live:
            engine.update("t", pk, {"val": value})
        elif op == "delete" and pk in live:
            engine.delete("t", pk)
            live.discard(pk)


class TestReplayReconstructs:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_replay_matches_live_state(self, ops):
        engine = _build(ops)
        assert state_digest(replay(engine.wal.read())) == engine.state_digest()

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_replay_is_idempotent(self, ops):
        engine = _build(ops)
        first = state_digest(replay(engine.wal.read()))
        second = state_digest(replay(engine.wal.read()))
        assert first == second == engine.state_digest()

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS, every=st.integers(min_value=1, max_value=7))
    def test_snapshot_plus_tail_equals_full_replay(self, ops, every):
        plain = _build(ops)
        snapshotted = _build(ops, snapshot_every=every)
        assert (
            state_digest(replay(snapshotted.wal.read()))
            == plain.state_digest()
        )

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_bytes_round_trip(self, ops):
        engine = _build(ops)
        recovered = replay(engine.wal.read())
        live = sorted(engine.select("t"), key=lambda r: r["id"])
        back = sorted(recovered.select("t"), key=lambda r: r["id"])
        assert live == back  # bytes columns byte-identical, not reprs


class TestPrefixesAreValidStates:
    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS, data=st.data())
    def test_any_prefix_replays_cleanly(self, ops, data):
        engine = _build(ops)
        records = engine.wal.read()
        cut = data.draw(st.integers(min_value=0, max_value=len(records)))
        replay(records[:cut])  # must not raise for any boundary

    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS)
    def test_crash_between_apply_and_append_recovers_prior_state(self, ops):
        """The engine applies, then logs; a crash in between loses exactly
        the unlogged op.  Recovery must equal the state *before* it."""
        engine = _build(ops)
        records = engine.wal.read()
        if len(records) <= 1:
            return
        shadow = replay(records[:-1])
        expected = _build_prefix_state(ops, records)
        assert state_digest(shadow) == expected

    def test_txn_abort_leaves_no_trace(self):
        engine = _build([("insert", 1, "a")])
        before = engine.wal.last_lsn
        with pytest.raises(ValidationError):
            with engine.transaction():
                engine.insert("t", {"id": 2, "val": "x", "blob": b""})
                engine.insert("t", {"id": 2, "val": "dup", "blob": b""})
        assert engine.wal.last_lsn == before
        assert state_digest(replay(engine.wal.read())) == engine.state_digest()

    def test_txn_is_one_atomic_record(self):
        engine = _build([])
        with engine.transaction():
            engine.insert("t", {"id": 1, "val": "a", "blob": b""})
            engine.insert("t", {"id": 2, "val": "b", "blob": b""})
            engine.update("t", 1, {"val": "c"})
        txn = engine.wal.read()[-1]
        assert txn["op"] == "txn" and len(txn["ops"]) == 3
        # Dropping the txn record recovers the exact pre-transaction state.
        recovered = replay(engine.wal.read()[:-1])
        assert recovered.row_count("t") == 0


def _build_prefix_state(ops, records):
    """Digest of the engine state just before the last logged record."""
    shadow = WALEngine(InMemoryEngine())
    shadow.create_table("t", SCHEMA)
    target = len(records) - 1
    live = set()
    for op, pk, value in ops:
        if shadow.wal.last_lsn >= target:
            break
        if op == "insert" and pk not in live:
            shadow.insert("t", {"id": pk, "val": value, "blob": b"\x00" * (pk + 1)})
            live.add(pk)
        elif op == "update" and pk in live:
            shadow.update("t", pk, {"val": value})
        elif op == "delete" and pk in live:
            shadow.delete("t", pk)
            live.discard(pk)
    return shadow.state_digest()


class TestFileRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(ops=_OPS)
    def test_file_reload_matches(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.wal")
            engine = _build(ops, path=path)
            engine.wal.close()
            records, dropped = load_wal(path)
            assert dropped == 0
            # The file holds exactly what a path-less log of the same run holds.
            assert records == _build(ops).wal.read()
            assert state_digest(replay(records)) == engine.state_digest()

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "t.wal")
        engine = _build(
            [("insert", i, f"v{i}") for i in range(5)], path=path
        )
        engine.wal.close()
        before = engine.wal.read()  # captured before the tear
        with open(path, "r+", encoding="utf-8") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) - 12])  # tear the last line
        records, dropped = load_wal(path)
        assert dropped == 1
        assert records == before[:-1]
        replay(records)  # the surviving prefix is a valid state

    def test_corrupted_line_stops_the_read(self, tmp_path):
        path = str(tmp_path / "t.wal")
        engine = _build([("insert", i, "x") for i in range(6)], path=path)
        engine.wal.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # Flip a byte inside record 3's payload: its CRC no longer matches.
        lines[3] = lines[3][:-2] + ("A" if lines[3][-2] != "A" else "B") + lines[3][-1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        records, dropped = load_wal(path)
        assert len(records) == 3
        assert dropped == len(lines) - 3  # everything after the bad record

    def test_lsn_gap_stops_the_read(self, tmp_path):
        path = str(tmp_path / "t.wal")
        engine = _build([("insert", i, "x") for i in range(6)], path=path)
        engine.wal.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        del lines[2]  # a missing record: later ones may depend on it
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        records, _ = load_wal(path)
        assert len(records) == 2


class TestFileBackedLog:
    """A log with a path keeps its history in one place: the file."""

    def test_history_is_not_held_in_memory(self, tmp_path):
        # Six columns, like a token row: a row dict of five keys or fewer
        # would take its keys table from CPython's small-dict free list,
        # where a logged record's table has just gone, and tracemalloc
        # charges a recycled block to the line that first allocated it.
        wide = TableSchema(
            columns=("id", "val", "blob", "a", "b", "c"), primary_key="id"
        )
        tracemalloc.start()
        try:
            engine = WALEngine(InMemoryEngine(), path=str(tmp_path / "t.wal"))
            engine.create_table("t", wide)
            for pk in range(5_000):
                engine.insert("t", {"id": pk, "val": f"v{pk}", "blob": b"\x00" * 8})
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, wal_module.__file__)]
            )
        finally:
            tracemalloc.stop()
        engine.wal.close()
        assert sum(stat.size for stat in held.statistics("filename")) < 64 * 1024
        assert engine.wal.stats()["records"] == engine.wal.last_lsn == 5_001

    def test_read_is_the_file(self, tmp_path):
        path = str(tmp_path / "t.wal")
        engine = _build([("insert", pk, f"v{pk}") for pk in range(4)], path=path)
        assert engine.wal.read() == load_wal(path)[0]
        assert [r["lsn"] for r in engine.wal.read()] == [1, 2, 3, 4, 5]

    def test_a_used_file_is_refused(self, tmp_path):
        path = str(tmp_path / "t.wal")
        _build([("insert", 1, "a")], path=path).wal.close()
        with open(path, "rb") as handle:
            written = handle.read()
        with pytest.raises(ConfigurationError, match="--replay"):
            WriteAheadLog(path)
        with pytest.raises(ConfigurationError, match="already holds a WAL"):
            WALEngine(InMemoryEngine(), path=path)
        with open(path, "rb") as handle:
            assert handle.read() == written  # no second history appended
        assert load_wal(path) == (_build([("insert", 1, "a")]).wal.read(), 0)

    def test_a_closed_log_refuses_appends(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "t.wal"))
        log.close()
        with pytest.raises(ValueError):
            log.append({"op": "delete", "table": "t", "pk": 1})
        assert log.read() == []

    def test_an_empty_file_is_a_fresh_log(self, tmp_path):
        path = tmp_path / "t.wal"
        path.touch()
        log = WriteAheadLog(str(path))
        assert log.read() == []
        log.close()

    def test_a_replica_applies_each_record_once_and_follows_every_lsn(self):
        applied = []

        class Recording(InMemoryEngine):
            def create_table(self, name, schema):
                applied.append(("create_table", name))
                super().create_table(name, schema)

            def insert(self, table, row):
                applied.append(("insert", row["id"]))
                return super().insert(table, row)

        engine = WALEngine(
            InMemoryEngine(), snapshot_every=3, replicas=1, engine_factory=Recording
        )
        (replica,) = engine.replicas
        heads, followed = [], []
        engine.create_table("t", SCHEMA)
        heads.append(engine.wal.last_lsn)
        followed.append(replica.applied_lsn)
        for pk in range(5):
            engine.insert("t", {"id": pk, "val": None, "blob": None})
            heads.append(engine.wal.last_lsn)
            followed.append(replica.applied_lsn)
        records = engine.wal.read()
        assert [r["op"] for r in records].count("snapshot") == 2
        assert applied == [("create_table", "t")] + [("insert", pk) for pk in range(5)]
        assert len(applied) == sum(r["op"] != "snapshot" for r in records)
        # The snapshots at LSN 4 and 8 move the replica's mark too.
        assert followed == heads == [1, 2, 4, 5, 6, 8]
        assert state_digest(replica.engine) == engine.state_digest()


def _framed(payload: bytes) -> bytes:
    """``payload`` as a log line with a correct CRC: only its content can fail."""
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


#: JSON that is not a record: scalars, lists and objects without an ``lsn``.
_NOT_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text().filter(lambda key: key != "lsn"), inner, max_size=3),
    max_leaves=6,
).map(lambda value: _framed(json.dumps(value).encode("utf-8")))

_TAILS = st.lists(st.binary(max_size=24) | _NOT_RECORDS, max_size=4).map(b"".join)


class TestArbitraryTails:
    """``load_wal`` is a boundary: whatever follows a valid log — garbage,
    bytes that are not UTF-8, CRC-valid lines that are not records — is a
    torn tail, dropped and counted, and the read never raises."""

    @settings(max_examples=200, deadline=None)
    @given(tail=_TAILS)
    @example(tail=b"\xff\xfe garbage\n")  # not UTF-8
    @example(tail=_framed(b"5"))  # CRC-valid JSON that is not an object
    @example(tail=_framed(b"[" * 100_000))  # CRC-valid, nested past the parser
    def test_any_bytes_after_a_valid_log_are_a_dropped_tail(self, tail):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.wal")
            engine = _build([("insert", pk, f"v{pk}") for pk in range(3)], path=path)
            engine.wal.close()
            before = engine.wal.read()  # captured before the tail lands
            with open(path, "ab") as handle:
                handle.write(tail)
            records, dropped = load_wal(path)
        assert records == before
        assert dropped == len(tail.splitlines())


class TestEncodingAndState:
    def test_encode_row_tags_bytes(self):
        row = {"a": b"\x01\x02", "b": "text", "c": 3}
        encoded = encode_row(row)
        assert encoded["a"] == {"__bytes__": "0102"}
        assert decode_row(encoded) == row

    def test_capture_state_is_insert_order_independent(self):
        left = InMemoryEngine()
        right = InMemoryEngine()
        for engine in (left, right):
            engine.create_table("t", SCHEMA)
        for pk in (1, 2, 3):
            left.insert("t", {"id": pk, "val": "v", "blob": None})
        for pk in (3, 1, 2):
            right.insert("t", {"id": pk, "val": "v", "blob": None})
        assert capture_state(left) == capture_state(right)
        assert state_digest(left) == state_digest(right)

    def test_snapshot_inside_transaction_refused(self):
        engine = _build([("insert", 1, "a")], snapshot_every=0)
        with pytest.raises(ValidationError):
            with engine.transaction():
                engine.snapshot()
