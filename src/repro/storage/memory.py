"""The in-memory engine: dict-backed tables with undo-log transactions.

The seed implementation snapshotted every table with ``copy.deepcopy`` at
the top of each transaction — O(entire database) per write block, which is
what capped the store at toy populations.  This engine instead keeps an
**undo log**: every mutating operation inside a transaction appends its
inverse (insert → delete, update → restore old columns, delete →
re-insert), and an abort replays the log backwards from the savepoint.
Commit and abort therefore cost O(operations touched), independent of how
many rows the database holds; ``benchmarks/test_perf_storage.py`` asserts
exactly that.

A single re-entrant lock makes the engine safe for threaded callers; the
sharded engine stripes that lock by wrapping one instance per shard.
A latency set with ``set_latency`` (free until set) sleeps once per
operation *while holding the lock*, standing in for the MariaDB
network/disk round trip so concurrency benchmarks exercise realistic
contention instead of pure-Python overhead.

Nested ``transaction()`` blocks behave like savepoints: an inner abort
rolls back only the inner block's operations; an outer abort rolls back
everything, including committed inner blocks.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError, ValidationError
from repro.storage.engine import Row, Transaction
from repro.storage.schema import TableSchema


class _MemoryTable:
    """Rows keyed by primary key, with unique and secondary indices.

    A stored row is one list in ``columns`` order, handed out as a fresh
    dict.  A secondary index files a value one row holds as that row's pk,
    and a value rows share as the set of their pks (a pk is hashable, so
    never a ``set``).  It holds only the values live rows hold.
    """

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self.columns = schema.columns
        self.position: Dict[str, int] = {c: i for i, c in enumerate(self.columns)}
        self.pk_at = self.position[schema.primary_key]
        self.rows: Dict[Any, list] = {}
        self.unique: Dict[str, Dict[Any, Any]] = {c: {} for c in schema.unique}
        self.indices: Dict[str, Dict[Any, Any]] = {c: {} for c in schema.indexed}

    def _check_columns(self, row: Row) -> None:
        unknown = set(row) - set(self.columns)
        if unknown:
            raise ValidationError(f"{self.name}: unknown columns {sorted(unknown)}")

    # -- constrained operations (raise on violation) ------------------------

    def insert(self, row: Row) -> list:
        self._check_columns(row)
        stored = list(map(row.get, self.columns))
        pk = stored[self.pk_at]
        if pk is None:
            raise ValidationError(f"{self.name}: missing primary key")
        if pk in self.rows:
            raise ValidationError(f"{self.name}: duplicate primary key {pk!r}")
        for col, index in self.unique.items():
            value = stored[self.position[col]]
            if value is not None and value in index:
                raise ValidationError(
                    f"{self.name}: unique constraint violated on {col}={value!r}"
                )
        self.rows[pk] = stored
        self._link(pk, stored)
        return stored

    def update(self, pk: Any, changes: Row) -> Tuple[Row, list]:
        """Apply ``changes``; returns ``(old_values, new_row)``."""
        self._check_columns(changes)
        if self.schema.primary_key in changes:
            raise ValidationError(f"{self.name}: cannot change the primary key")
        row = self.rows.get(pk)
        if row is None:
            raise NotFoundError(f"{self.name}: no row with key {pk!r}")
        for col, new in changes.items():
            if col in self.unique:
                existing = self.unique[col].get(new)
                if new is not None and existing is not None and existing != pk:
                    raise ValidationError(
                        f"{self.name}: unique constraint violated on {col}={new!r}"
                    )
        old = self.apply(pk, changes)
        return old, row

    def delete(self, pk: Any) -> list:
        row = self.rows.pop(pk, None)
        if row is None:
            raise NotFoundError(f"{self.name}: no row with key {pk!r}")
        self._unlink(pk, row)
        return row

    # -- unchecked primitives (index-maintaining; shared with undo) ---------

    def apply(self, pk: Any, changes: Row) -> Row:
        """Set columns without constraint checks; returns the old values.

        ``apply(pk, apply(pk, changes))`` is the identity, which is what
        makes an update's undo entry just its old-values dict.
        """
        row = self.rows[pk]
        old: Row = {}
        for col, new in changes.items():
            at = self.position[col]
            previous = old[col] = row[at]
            if col in self.unique:
                if previous is not None:
                    self.unique[col].pop(previous, None)
                if new is not None:
                    self.unique[col][new] = pk
            if col in self.indices:
                index = self.indices[col]
                self._unfile(index, previous, pk)
                self._file(index, new, pk)
            row[at] = new
        return old

    @staticmethod
    def _file(index: Dict[Any, Any], value: Any, pk: Any) -> None:
        filed = index.get(value)
        if filed is None:
            index[value] = pk
        elif type(filed) is set:
            filed.add(pk)
        else:
            index[value] = {filed, pk}

    @staticmethod
    def _unfile(index: Dict[Any, Any], value: Any, pk: Any) -> None:
        filed = index[value]
        if type(filed) is not set:
            del index[value]
            return
        filed.discard(pk)
        if len(filed) == 1:
            (index[value],) = filed

    def _link(self, pk: Any, stored: list) -> None:
        for col, index in self.unique.items():
            value = stored[self.position[col]]
            if value is not None:
                index[value] = pk
        for col, index in self.indices.items():
            self._file(index, stored[self.position[col]], pk)

    def _unlink(self, pk: Any, row: list) -> None:
        for col, index in self.unique.items():
            value = row[self.position[col]]
            if value is not None:
                index.pop(value, None)
        for col, index in self.indices.items():
            self._unfile(index, row[self.position[col]], pk)

    def undo_insert(self, pk: Any) -> None:
        row = self.rows.pop(pk)
        self._unlink(pk, row)

    def undo_delete(self, row: list) -> None:
        pk = row[self.pk_at]
        self.rows[pk] = row
        self._link(pk, row)


class InMemoryEngine:
    """Thread-safe dict-backed engine with undo-log transactions."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._tables: Dict[str, _MemoryTable] = {}
        self._lock = threading.RLock()
        self._latency = 0.0
        # The clock the simulated round trip is charged to: a WallClock
        # really sleeps (threaded benchmarks measure real contention); a
        # VirtualClock charges the wait to simulated time, which is how a
        # chaos slow-shard window costs logins simulated seconds instead of
        # stalling the test run.
        self._clock = clock or WallClock()
        #: LIFO of inverse operations recorded while a transaction is open.
        self._log: List[tuple] = []
        #: The log's length at each open block's begin, outermost first.
        self._marks: List[int] = []

    # -- plumbing -----------------------------------------------------------

    @property
    def latency(self) -> float:
        return self._latency

    def set_latency(self, latency: float) -> None:
        """Set the simulated round trip — the concurrency benchmarks set it
        once after ``build_engine``; the chaos engine's slow-shard fault dials
        it up mid-run and back down when the window closes."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self._latency = latency

    def _table(self, name: str) -> _MemoryTable:
        try:
            return self._tables[name]
        except KeyError:
            raise NotFoundError(f"no such table: {name}") from None

    def _open(self, name: str) -> _MemoryTable:
        """``_table`` for one row op, after the simulated backing-store round
        trip (held under the lock, like a connection checked out of a pool
        for the duration of the query)."""
        if self._latency:
            self._clock.sleep(self._latency)
        try:
            return self._tables[name]
        except KeyError:
            raise NotFoundError(f"no such table: {name}") from None

    # -- schema -------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> None:
        with self._lock:
            if name in self._tables:
                raise ValidationError(f"table {name!r} already exists")
            self._tables[name] = _MemoryTable(name, schema)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[str]:
        return list(self._tables)

    def schema(self, table: str) -> TableSchema:
        return self._table(table).schema

    # -- row operations -------------------------------------------------------

    def insert(self, table: str, row: Row) -> Row:
        with self._lock:
            t = self._open(table)
            stored = t.insert(row)
            if self._marks:
                self._log.append(("insert", table, stored[t.pk_at]))
            return dict(zip(t.columns, stored))

    def get(self, table: str, pk: Any) -> Row:
        with self._lock:
            t = self._open(table)
            row = t.rows.get(pk)
            if row is None:
                raise NotFoundError(f"{table}: no row with key {pk!r}")
            return dict(zip(t.columns, row))

    def exists(self, table: str, pk: Any) -> bool:
        with self._lock:
            return pk in self._open(table).rows

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        with self._lock:
            t = self._open(table)
            if column not in t.unique:
                raise ValidationError(f"{table}: {column} has no unique index")
            pk = t.unique[column].get(value)
            if pk is None:
                raise NotFoundError(f"{table}: no row with {column}={value!r}")
            return dict(zip(t.columns, t.rows[pk]))

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        with self._lock:
            t = self._open(table)
            old, row = t.update(pk, changes)
            if self._marks:
                self._log.append(("update", table, pk, old))
            return dict(zip(t.columns, row))

    def delete(self, table: str, pk: Any) -> Row:
        with self._lock:
            t = self._open(table)
            row = t.delete(pk)
            if self._marks:
                self._log.append(("delete", table, row))
            return dict(zip(t.columns, row))

    def select(
        self,
        table: str,
        where: Optional[Row] = None,
    ) -> List[Row]:
        """Return matching rows; equality ``where`` uses indices when it can.

        A one-column ``where`` that the primary key or an index answered is
        exact (an index holds just what live rows hold): no row re-checks it.
        """
        with self._lock:
            t = self._open(table)
            candidates = None
            if where:
                for col in where:
                    value = where[col]
                    if col == t.schema.primary_key:
                        candidates = [value] if value in t.rows else []
                        break
                    if col in t.indices:
                        filed = t.indices[col].get(value)
                        if filed is None:
                            candidates = []
                        else:
                            candidates = list(filed) if type(filed) is set else [filed]
                        break
                    if col in t.unique:
                        pk = t.unique[col].get(value)
                        candidates = [pk] if pk is not None else []
                        break
                if candidates is not None and len(where) == 1:
                    where = None
            keys = candidates if candidates is not None else list(t.rows)
            rows, columns, position = t.rows, t.columns, t.position
            results = []
            for pk in keys:
                row = rows[pk]
                if where and any(
                    (row[position[c]] if c in position else None) != v
                    for c, v in where.items()
                ):
                    continue
                results.append(dict(zip(columns, row)))
            return results

    def count(self, table: str, where: Optional[Row] = None) -> int:
        with self._lock:
            t = self._open(table)
            if not where:
                return len(t.rows)
            if len(where) == 1:
                # Single-column equality over an index is O(1): the index is
                # maintained exactly, so no row check is needed.
                ((col, value),) = where.items()
                if col in t.indices:
                    filed = t.indices[col].get(value)
                    if filed is None:
                        return 0
                    return len(filed) if type(filed) is set else 1
                if col in t.unique:
                    return 1 if t.unique[col].get(value) is not None else 0
                if col == t.schema.primary_key:
                    return 1 if value in t.rows else 0
            return len(self.select(table, where=where))

    def row_count(self, table: Optional[str] = None) -> int:
        with self._lock:
            if table is not None:
                return len(self._table(table).rows)
            return sum(len(t.rows) for t in self._tables.values())

    def describe(self) -> Dict[str, Any]:
        """The storage section of ``OTPServer.status()`` for a bare engine.

        Every stack bottoms out in this engine, so the section's shape is
        written down here once: one shard, no log, no replicas, no cache.
        A layer above overwrites the one value it owns (``cache``, a
        shard's ``wal`` or ``replication``) and never adds a key, so the
        key set is the same on every stack.
        """
        with self._lock:
            tables = {name: len(t.rows) for name, t in self._tables.items()}
        return {
            "tables": tables,
            "cache": {
                "entries": 0, "capacity": 0, "hits": 0, "misses": 0, "hit_ratio": 0.0,
            },
            "shards": [
                {
                    "tables": dict(tables),
                    "wal": {
                        "records": 0, "last_lsn": 0, "snapshots": 0,
                        "last_snapshot_lsn": 0, "bytes": 0, "path": None,
                        "snapshot_every": 0,
                    },
                    "replication": {
                        "primary": 0, "promotions": 0, "crashed_node": None,
                        "replicas": [],
                    },
                }
            ],
        }

    def bulk_load(self, table: str, rows: List[Row]) -> int:
        """Load rows known-valid in one pass (WAL snapshot restore).

        Rows come from a snapshot of an engine that already enforced every
        constraint, so this skips the per-insert unique probes and the
        simulated round trip — recovery replay cost is dominated by the
        tail of the log, not by re-validating the snapshot.  Refuses to
        load into a non-empty table: it is a restore primitive, not an
        import path around the constraint checks.
        """
        with self._lock:
            t = self._table(table)
            if t.rows:
                raise ValidationError(f"{table}: bulk_load into non-empty table")
            if self._marks:
                raise ValidationError(f"{table}: bulk_load inside a transaction")
            for row in rows:
                stored = list(map(row.get, t.columns))
                t.rows[stored[t.pk_at]] = stored
                t._link(stored[t.pk_at], stored)
            return len(rows)

    # -- transactions ---------------------------------------------------------

    def transaction(self) -> Transaction:
        """All-or-nothing block; nested blocks behave like savepoints."""
        return Transaction(self)

    def begin(self) -> None:
        self._lock.acquire()
        self._marks.append(len(self._log))

    def commit(self) -> None:
        self._marks.pop()
        if not self._marks:
            self._log.clear()
        self._lock.release()

    def rollback(self) -> None:
        try:
            self._rollback_to(self._marks.pop())
        finally:
            if not self._marks:
                self._log.clear()
            self._lock.release()

    def _rollback_to(self, mark: int) -> None:
        while len(self._log) > mark:
            entry = self._log.pop()
            table = self._tables[entry[1]]
            if entry[0] == "insert":
                table.undo_insert(entry[2])
            elif entry[0] == "update":
                table.apply(entry[2], entry[3])
            else:  # delete
                table.undo_delete(entry[2])
