"""Write-ahead logging, log-shipping replicas and deterministic replay.

The paper's LinOTP keeps pairings and lockout counters in "an encrypted
MariaDB relational database" — durable by construction.  This module gives
the reproduction's in-process engines the same property:

* :class:`WriteAheadLog` — an append-only record store.  Each record is
  canonical JSON (sorted keys, no whitespace) prefixed with a CRC32, so a
  log can be shipped between replicas, written to a file, and reloaded
  with torn or corrupted tails detected rather than silently applied.
* :class:`WALEngine` — one durable shard.  It wraps any
  :class:`~repro.storage.engine.StorageEngine` and logs every committed
  mutation (``create_table`` / ``insert`` / ``update`` / ``delete``; a
  transaction as one atomic ``txn`` record, appended before the inner
  engine commits it; a lone write is applied, then logged).  Optional
  snapshot records embed the full state every ``snapshot_every`` mutations
  so recovery is snapshot + tail.  With ``replicas`` > 0 every appended
  record is also shipped, synchronously, to that many followers, so a
  follower is never behind at an operation boundary — the "no lost
  pairings" bar under a primary crash.  :meth:`WALEngine.crash_primary`
  promotes deterministically (highest ``applied_lsn``, ties to the lowest
  node id) and :meth:`WALEngine.rejoin` rebuilds the crashed node purely
  by replaying the log.
* :func:`replay` — rebuild an engine from a record sequence.  Recovery is
  deterministic: the same WAL always reconstructs the same state, witnessed
  by :func:`state_digest` (SHA-256 over the canonical rendering every other
  deterministic harness in the repo uses, via :mod:`repro.simcore.digest`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ValidationError
from repro.simcore.digest import canonical_line
from repro.storage.engine import Layer, Row, StorageEngine, find_layer, shards_of
from repro.storage.memory import InMemoryEngine
from repro.storage.schema import TableSchema
from repro.telemetry import resolve_registry

__all__ = [
    "WALEngine",
    "WriteAheadLog",
    "load_wal",
    "replay",
    "state_digest",
    "wal_digests",
]


# -- canonical value encoding -------------------------------------------------
#
# Rows hold sealed secrets as raw bytes; JSON cannot.  Bytes are tagged so
# a replayed row is byte-identical to the original, not a lossy repr.  A
# value is tagged where it is written, ``{_BYTES_TAG: v.hex()} if
# v.__class__ is bytes else v``: a row costs one comprehension, a pk no call.

_BYTES_TAG = "__bytes__"


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {_BYTES_TAG}:
        return bytes.fromhex(value[_BYTES_TAG])
    return value


def encode_row(row: Row) -> Dict[str, Any]:
    return {c: {_BYTES_TAG: v.hex()} if v.__class__ is bytes else v for c, v in row.items()}


def decode_row(row: Dict[str, Any]) -> Row:
    return {column: decode_value(value) for column, value in row.items()}


# -- the log ------------------------------------------------------------------


class WriteAheadLog:
    """An append-only, CRC'd, canonical-JSON record store.

    In memory by default; with ``path`` every record is only written, as a
    line ``<crc32 hex> <canonical json>``, and flushed: the file is the
    history :meth:`read` and an offline ``storage --replay`` load back.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._records: List[dict] = []  # a path-less log's history
        self.path = path
        self._file = open(path, "a", encoding="utf-8") if path else None
        if self._file is not None and self._file.tell():  # LSNs restart at 1
            self._file.close()
            raise ConfigurationError(f"{path} already holds a WAL (see storage --replay)")
        self.bytes_written = 0
        self.snapshots = 0
        self.last_snapshot_lsn = 0
        self.last_lsn = 0

    def append(self, record: dict) -> dict:
        """Assign the next LSN, render canonically, persist; returns the record.

        A refused write (the file closed) raises and leaves the log as it
        was: the LSN is not spent, so the next record still follows on.
        """
        lsn = self.last_lsn + 1
        record = dict(record, lsn=lsn)
        line = canonical_line(record)
        if self._file is None:
            self._records.append(record)
        else:  # after close() the write raises rather than drop the record
            crc = zlib.crc32(line.encode("utf-8"))
            self._file.write(f"{crc:08x} {line}\n")
            self._file.flush()
        self.last_lsn = lsn
        self.bytes_written += len(line) + 10  # "crc " prefix + newline
        if record["op"] == "snapshot":
            self.snapshots += 1
            self.last_snapshot_lsn = lsn
        return record

    def read(self) -> List[dict]:
        """Every record logged so far, in LSN order (record ``n`` at index
        ``n - 1``): the file's, or the in-memory list's."""
        return load_wal(self.path)[0] if self.path else self._records

    def snapshot(self) -> Dict[str, object]:
        return {
            "records": self.last_lsn,
            "last_lsn": self.last_lsn,
            "snapshots": self.snapshots,
            "last_snapshot_lsn": self.last_snapshot_lsn,
            "bytes": self.bytes_written,
            "path": self.path,
        }

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def load_wal(path: str) -> Tuple[List[dict], int]:
    """Read a WAL file back; returns ``(valid records, dropped lines)``.

    Reading stops at the first record that fails its CRC, is not UTF-8 or
    does not parse to a JSON object — a torn tail from a crash mid-append,
    or corruption.  Everything from that point on is dropped (count
    returned), never partially applied: records after a gap could depend on
    the lost one.  Any bytes at all read this way; none raise.
    """
    records: List[dict] = []
    dropped = 0
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for index, raw in enumerate(lines):
        try:
            crc_hex, line = raw.split(b" ", 1)
            if int(crc_hex, 16) != zlib.crc32(line):
                raise ValueError("crc mismatch")
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("not a record")
            if not isinstance(record.get("lsn"), int):
                raise ValueError("missing lsn")
            if records and record["lsn"] != records[-1]["lsn"] + 1:
                raise ValueError("lsn gap")
        except (ValueError, RecursionError):
            dropped = len(lines) - index
            break
        records.append(record)
    return records, dropped


# -- replay -------------------------------------------------------------------

#: Every ``op`` a record can carry (what :func:`apply_record` dispatches on).
RECORD_OPS = ("insert", "update", "delete", "create_table", "txn", "snapshot")


def apply_record(engine: StorageEngine, record: dict) -> None:
    """Apply one WAL record to an engine (replica shipping / recovery)."""
    op = record["op"]
    if op == "insert":
        engine.insert(record["table"], decode_row(record["row"]))
    elif op == "update":
        engine.update(
            record["table"], decode_value(record["pk"]), decode_row(record["changes"])
        )
    elif op == "delete":
        engine.delete(record["table"], decode_value(record["pk"]))
    elif op == "create_table":
        engine.create_table(
            record["table"], TableSchema.from_dict(record["schema"])
        )
    elif op == "txn":
        with engine.transaction():
            for sub in record["ops"]:
                apply_record(engine, sub)
    elif op == "snapshot":
        # A snapshot confirms state a live follower already holds; only a
        # from-scratch replay (which *starts* at the snapshot) restores it.
        pass
    else:
        raise ValidationError(f"unknown WAL record op {op!r}")


def restore_snapshot(engine: InMemoryEngine, state: dict) -> None:
    """Load a snapshot record's embedded state into a fresh engine."""
    for name in state["table_order"]:
        table = state["tables"][name]
        engine.create_table(name, TableSchema.from_dict(table["schema"]))
        engine.bulk_load(name, [decode_row(row) for row in table["rows"]])


def replay(
    records: Sequence[dict],
    engine_factory: Callable[[], InMemoryEngine] = InMemoryEngine,
) -> InMemoryEngine:
    """Rebuild an engine from a WAL: latest snapshot, then the tail.

    Pure function of the record sequence — the determinism contract is
    ``state_digest(replay(wal)) == state_digest(original)`` for any engine
    the log was recorded against.
    """
    engine = engine_factory()
    start = 0
    for index in range(len(records) - 1, -1, -1):
        if records[index].get("op") == "snapshot":
            restore_snapshot(engine, records[index]["state"])
            start = index + 1
            break
    for record in records[start:]:
        apply_record(engine, record)
    return engine


def capture_state(engine: StorageEngine) -> dict:
    """The full engine state in canonical, JSON-safe form.

    ``table_order`` preserves creation order (recreating tables in order
    keeps a replayed engine's ``tables()`` listing identical); rows are
    sorted by their canonical rendering so the capture is independent of
    dict iteration and insert order.
    """
    state: dict = {"tables": {}, "table_order": list(engine.tables())}
    for name in state["table_order"]:
        rows = [encode_row(row) for row in engine.select(name)]
        rows.sort(key=canonical_line)
        state["tables"][name] = {
            "schema": engine.schema(name).to_dict(),
            "rows": rows,
        }
    return state


def state_digest(engine: StorageEngine) -> str:
    """SHA-256 over the canonical state — the recovery-equality witness."""
    return hashlib.sha256(
        canonical_line(capture_state(engine)).encode("utf-8")
    ).hexdigest()


def wal_digests(engine: StorageEngine) -> Dict[str, str]:
    """Each shard's WAL path mapped to the live digest a replay of that file
    must reproduce; an unsharded stack is its own one shard."""
    logs = [find_layer(shard, "wal") for shard in shards_of(engine)]
    return {log.wal.path: log.state_digest() for log in logs}


# -- the engine wrapper -------------------------------------------------------


class _Replica:
    """One follower: an engine plus how far into the WAL it has applied."""

    __slots__ = ("node_id", "engine", "applied_lsn")

    def __init__(self, node_id: int, engine: StorageEngine, applied_lsn: int = 0) -> None:
        self.node_id = node_id
        self.engine = engine
        self.applied_lsn = applied_lsn


class WALEngine(Layer):
    """Logs every committed mutation of the wrapped engine, and ships each
    appended record to this shard's replicas.

    Ordering contract: one lock serializes mutations, so WAL order is apply
    order and replay reconstructs the exact state.  Reads bypass the WAL
    lock entirely (the inner engine has its own).  Mutations inside a
    ``transaction()`` block are buffered and land as one atomic ``txn``
    record at commit, appended while the inner block is still open and
    only then committed there — an abort leaves no trace in the log, a
    refused append leaves none in the engine, and a crash between append
    and apply cannot split a transaction.  A lone write outside a block
    is applied, then logged: a refused append leaves it live.

    ``inner`` is the primary (node 0); ``replicas`` followers (nodes 1..N)
    are built with ``engine_factory``, which also builds a rejoining node.
    """

    def __init__(
        self,
        inner: Optional[StorageEngine] = None,
        path: Optional[str] = None,
        snapshot_every: int = 0,
        telemetry=None,
        replicas: int = 0,
        engine_factory: Callable[[], InMemoryEngine] = InMemoryEngine,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if replicas < 0:
            raise ValueError(f"replica count must be >= 0, got {replicas}")
        super().__init__(inner if inner is not None else engine_factory())
        self.wal = WriteAheadLog(path)
        self.snapshot_every = snapshot_every
        self._lock = threading.RLock()
        #: Stack of per-transaction record buffers (nested = savepoints).
        self._txn_buffers: List[List[dict]] = []
        registry = resolve_registry(telemetry)
        appends = registry.counter(
            "storage_wal_appends_total", "WAL records appended, by op"
        )
        self._c_appends = {op: appends.labels(op=op) for op in RECORD_OPS}
        # Telemetry off: an append makes no counter call at all.
        self._counted = registry.enabled
        self._engine_factory = engine_factory
        self.primary_id = 0
        self.replicas = [_Replica(node, engine_factory()) for node in range(1, replicas + 1)]
        self.promotions = 0
        self._crashed: Optional[int] = None  # node id awaiting rejoin

    # -- logging plumbing ---------------------------------------------------

    def _log(self, record: dict) -> None:
        """Buffer under a transaction, else append and ship to every
        replica; a snapshot the append triggers follows it, shipped as a
        position mark only (the replicas already hold that state)."""
        if self._txn_buffers:
            self._txn_buffers[-1].append(record)
            return
        record = self.wal.append(record)
        if self._counted:
            self._c_appends[record["op"]].inc()
        lsn = record["lsn"]
        for replica in self.replicas:
            if record["op"] != "snapshot":
                apply_record(replica.engine, record)
            replica.applied_lsn = lsn
        if self.snapshot_every and lsn - self.wal.last_snapshot_lsn >= self.snapshot_every:
            self.wal.append({"op": "snapshot", "state": capture_state(self.inner)})
            if self._counted:
                self._c_appends["snapshot"].inc()
            for replica in self.replicas:
                replica.applied_lsn = self.wal.last_lsn

    def snapshot(self) -> int:
        """Write a full-state snapshot record; returns its LSN."""
        with self._lock:
            if self._txn_buffers:
                raise ValidationError("cannot snapshot inside a transaction")
            self._log({"op": "snapshot", "state": capture_state(self.inner)})
            return self.wal.last_lsn

    # -- failure handling (what the ShardCrash chaos fault drives) ----------

    def crash_primary(self) -> Dict[str, object]:
        """Kill the primary and deterministically promote a replica.

        Returns the promotion report: old/new node ids, the crashed
        primary's state digest and the promoted node's digest after
        catch-up — equality is the zero-loss witness the kill-a-shard
        chaos invariant asserts.
        """
        with self._lock:
            if self._txn_buffers:
                raise ValidationError("cannot crash a primary mid-transaction")
            if not self.replicas:
                raise ValidationError(
                    "no replica to promote (crashed primary with replicas exhausted)"
                )
            if self._crashed is not None:
                raise ValidationError("a node is already down")
            pre_digest = state_digest(self.inner)
            # Deterministic promotion: most caught-up wins, ties to the
            # lowest node id — every run picks the same new primary.
            best = max(self.replicas, key=lambda replica: (replica.applied_lsn, -replica.node_id))
            for record in self.wal.read()[best.applied_lsn:]:  # record n at n - 1
                if record["op"] != "snapshot":
                    apply_record(best.engine, record)
                best.applied_lsn = record["lsn"]
            self._crashed = self.primary_id
            self.primary_id = best.node_id
            self.inner = best.engine
            self._bind()  # the pass-through reads follow the new primary
            self.replicas.remove(best)
            self.promotions += 1
            post_digest = state_digest(self.inner)
            return {
                "old_primary": self._crashed,
                "new_primary": self.primary_id,
                "lsn": self.wal.last_lsn,
                "pre_digest": pre_digest,
                "post_digest": post_digest,
                "match": pre_digest == post_digest,
            }

    def rejoin(self) -> Dict[str, object]:
        """The crashed node returns, rebuilt purely by log replay.

        The node's old engine state is discarded (the crash lost it); a
        fresh engine replays latest-snapshot + tail from the WAL and
        re-enters as a replica at the current head.
        """
        with self._lock:
            if self._crashed is None:
                raise ValidationError("no crashed node to rejoin")
            records = self.wal.read()
            rebuilt = replay(records, self._engine_factory)
            head = self.wal.last_lsn
            replica = _Replica(self._crashed, rebuilt, applied_lsn=head)
            self.replicas.append(replica)
            self.replicas.sort(key=lambda entry: entry.node_id)
            self._crashed = None
            rebuilt_digest = state_digest(rebuilt)
            primary_digest = state_digest(self.inner)
            return {
                "node": replica.node_id,
                "caught_up_records": len(records),
                "lsn": head,
                "rejoined_digest": rebuilt_digest,
                "primary_digest": primary_digest,
                "match": rebuilt_digest == primary_digest,
            }

    def set_latency(self, latency: float) -> None:
        """Retune the simulated round trip on every node (a slow volume
        degrades the shard, not whichever engine happens to be primary)."""
        self.inner.set_latency(latency)
        for replica in self.replicas:
            replica.engine.set_latency(latency)

    # -- introspection ------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The primary's status with this log as its shard's ``wal`` and
        these nodes as its ``replication``."""
        status = self.inner.describe()
        shard = status["shards"][0]
        shard["wal"] = {**self.wal.snapshot(), "snapshot_every": self.snapshot_every}
        head = self.wal.last_lsn
        shard["replication"] = {
            "primary": self.primary_id,
            "promotions": self.promotions,
            "crashed_node": self._crashed,
            "replicas": [
                {
                    "node": replica.node_id,
                    "applied_lsn": replica.applied_lsn,
                    "caught_up": replica.applied_lsn == head,
                }
                for replica in self.replicas
            ],
        }
        return status

    def state_digest(self) -> str:
        return state_digest(self.inner)

    # -- mutations (logged) -------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> None:
        with self._lock:
            self.inner.create_table(name, schema)
            self._log(
                {"op": "create_table", "table": name, "schema": schema.to_dict()}
            )

    def insert(self, table: str, row: Row) -> Row:
        with self._lock:
            stored = self.inner.insert(table, row)
            # Log the stored row (every column materialized), not the input:
            # replay must not depend on per-engine default-fill behaviour.
            self._log({"op": "insert", "table": table, "row": encode_row(stored)})
            return stored

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        with self._lock:
            row = self.inner.update(table, pk, changes)
            tagged = {_BYTES_TAG: pk.hex()} if pk.__class__ is bytes else pk
            self._log(
                {"op": "update", "table": table, "pk": tagged, "changes": encode_row(changes)}
            )
            return row

    def delete(self, table: str, pk: Any) -> Row:
        with self._lock:
            row = self.inner.delete(table, pk)
            tagged = {_BYTES_TAG: pk.hex()} if pk.__class__ is bytes else pk
            self._log({"op": "delete", "table": table, "pk": tagged})
            return row

    # -- transactions ---------------------------------------------------------

    def begin(self) -> None:
        self._lock.acquire()
        try:
            self.inner.begin()
        except BaseException:
            self._lock.release()
            raise
        self._txn_buffers.append([])

    def commit(self) -> None:
        """Log the block, then commit the inner engine's: what is live is
        what the log holds.  A refused append rolls the block back."""
        logged = self.wal.last_lsn
        try:
            buffer = self._txn_buffers.pop()
            if buffer and self._txn_buffers:
                # Committed savepoint: fold into the enclosing block.
                self._txn_buffers[-1].extend(buffer)
            elif buffer:
                self._log(buffer[0] if len(buffer) == 1 else {"op": "txn", "ops": buffer})
        except BaseException:
            if self.wal.last_lsn == logged:
                self.inner.rollback()
            else:  # logged; what failed came after the append
                self.inner.commit()
            raise
        else:
            self.inner.commit()
        finally:
            self._lock.release()

    def rollback(self) -> None:
        """Drop the block's records (an abort leaves no trace in the log)
        and roll the inner engine back."""
        try:
            self._txn_buffers.pop()
            self.inner.rollback()
        finally:
            self._lock.release()
