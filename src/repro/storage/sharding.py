"""Consistent-hash sharding with routed secondary lookups.

Rows are placed on a shard by hashing their primary key onto a ring of
virtual nodes (so adding a shard would move only ~1/N of the keys, the
property federated deployments rely on when they grow the storage tier).
Each shard is its own engine with its own lock, which is the lock
striping: two threads validating different users touch different shards
and never contend.

A naive sharded ``select(where={"user_id": ...})`` would have to ask every
shard.  The engine instead maintains a **routing index** — for each
indexed/unique column, a refcounted map of value → shards holding matching
rows — so single-value equality queries go to exactly the shards that can
answer them (usually one).  Unique constraints are enforced globally
through the same structure: an insert *claims* its unique values under the
routing lock before touching the shard, so two threads racing to insert
the same value on different shards cannot both win.

Transactions span every shard: all shard locks are taken in a fixed order
(no deadlocks) and each shard opens its own block.  The routing index
keeps an undo log of the bumps the block's own thread made; an abort
undoes them, newest first, while every shard is still held, then rolls
the shards back.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import NotFoundError, ValidationError
from repro.storage.engine import Predicate, Row, StorageEngine, Transaction
from repro.storage.schema import TableSchema

#: Ring points per shard: enough that keys spread evenly across shards.
VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run).  A
    lone surrogate — login names are outside input — hashes, never raises."""
    data = key.encode("utf-8", "surrogatepass")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring over ``n_shards`` with virtual nodes."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(VIRTUAL_NODES):
                points.append((stable_hash(f"shard{shard}:vnode{vnode}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        index = bisect.bisect_right(self._hashes, stable_hash(key))
        return self._shards[index % len(self._shards)]


class _RouteLog(threading.local):
    """Where this thread logs its route bumps: the open block's undo log,
    or None outside one (and in every thread but the block's own)."""

    log: Optional[List[tuple]] = None


class ShardedEngine:
    """N engines behind one :class:`StorageEngine` surface."""

    def __init__(self, shards: Sequence[StorageEngine]) -> None:
        self.shards: List[StorageEngine] = list(shards)
        if not self.shards:
            raise ValueError("sharded engine needs at least one shard")
        self._ring = HashRing(len(self.shards))
        self._schemas: Dict[str, TableSchema] = {}
        #: table -> its indexed then unique columns, each once (what is routed)
        self._routed: Dict[str, Tuple[str, ...]] = {}
        # (table, column) -> value -> {shard index: row refcount}
        self._routes: Dict[Tuple[str, str], Dict[Any, Dict[int, int]]] = {}
        self._route_lock = threading.Lock()
        #: ``(table, column, value, shard, delta)`` per bump the open block's
        #: thread made, and the log's length at each nested begin; only the
        #: thread holding every shard touches either.
        self._route_log: List[tuple] = []
        self._route_marks: List[int] = []
        self._logging = _RouteLog()

    # -- schema -------------------------------------------------------------

    def create_table(self, name: str, schema: TableSchema) -> None:
        if name in self._schemas:
            raise ValidationError(f"table {name!r} already exists")
        for shard in self.shards:
            shard.create_table(name, schema)
        self._schemas[name] = schema
        self._routed[name] = tuple(dict.fromkeys((*schema.indexed, *schema.unique)))
        with self._route_lock:
            for col in self._routed[name]:
                self._routes[(name, col)] = {}

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def tables(self) -> List[str]:
        return list(self._schemas)

    def schema(self, table: str) -> TableSchema:
        try:
            return self._schemas[table]
        except KeyError:
            raise NotFoundError(f"no such table: {table}") from None

    # -- placement ----------------------------------------------------------

    def _shard_of(self, table: str, pk: Any) -> int:
        return self._ring.shard_for(f"{table}/{pk!r}")

    def shard_sizes(self, table: Optional[str] = None) -> List[int]:
        return [shard.row_count(table) for shard in self.shards]

    def describe(self) -> Dict[str, Any]:
        """The shards' statuses merged into one: their ``shards`` entries in
        ring order (one per shard), their row counts summed."""
        status = self.shards[0].describe()
        for shard in self.shards[1:]:
            other = shard.describe()
            status["shards"].extend(other["shards"])
            for table, rows in other["tables"].items():
                status["tables"][table] += rows
        return status

    def row_count(self, table: Optional[str] = None) -> int:
        return sum(self.shard_sizes(table))

    # -- routing index ------------------------------------------------------

    def _route_shards(self, table: str, column: str, value: Any) -> List[int]:
        with self._route_lock:
            owners = self._routes.get((table, column), {}).get(value)
            return sorted(owners) if owners else []

    def _route_adjust(self, table: str, row: Row, index: int, delta: int) -> None:
        schema = self._schemas[table]
        with self._route_lock:
            for col in self._routed[table]:
                value = row[col]
                if col in schema.unique and col not in schema.indexed and value is None:
                    continue  # NULLs never participate in unique constraints
                self._route_bump(table, col, value, index, delta)

    def _route_bump(
        self, table: str, column: str, value: Any, index: int, delta: int
    ) -> None:
        owners = self._routes[(table, column)].setdefault(value, {})
        count = owners.get(index, 0) + delta
        if count > 0:
            owners[index] = count
        else:
            owners.pop(index, None)
            if not owners:
                self._routes[(table, column)].pop(value, None)
        log = self._logging.log
        if log is not None:
            log.append((table, column, value, index, delta))

    def _undo_routes(self, log: List[tuple], mark: int, below: int) -> None:
        """Undo the bumps logged since ``mark`` on shards ``< below``, newest
        first, and keep the rest logged (the caller holds the route lock)."""
        kept = []
        for entry in reversed(log[mark:]):
            table, column, value, index, delta = entry
            if index < below:
                self._route_bump(table, column, value, index, -delta)
            else:
                kept.append(entry)
        del log[mark:]  # and the inverses just logged, in a nested block
        log.extend(reversed(kept))

    # -- row operations -----------------------------------------------------

    def insert(self, table: str, row: Row) -> Row:
        schema = self.schema(table)
        pk = row.get(schema.primary_key)
        if pk is None:
            raise ValidationError(f"{table}: missing primary key")
        claimed: List[Tuple[str, Any]] = []
        index = self._shard_of(table, pk)
        # Claim unique values globally before the shard write: a concurrent
        # insert of the same value on another shard sees the claim and fails.
        with self._route_lock:
            for col in schema.unique:
                value = row.get(col)
                if value is None:
                    continue
                if self._routes[(table, col)].get(value):
                    for undo_col, undo_value in claimed:
                        self._route_bump(table, undo_col, undo_value, index, -1)
                    raise ValidationError(
                        f"{table}: unique constraint violated on {col}={value!r}"
                    )
                self._route_bump(table, col, value, index, +1)
                claimed.append((col, value))
        try:
            stored = self.shards[index].insert(table, row)
        except BaseException:
            with self._route_lock:
                for col, value in claimed:
                    self._route_bump(table, col, value, index, -1)
            raise
        # Claimed unique columns are already routed (an unclaimed unique-only
        # column holds None, which is not routed); route the indexed rest.
        with self._route_lock:
            for col in schema.indexed:
                if (col, stored[col]) not in claimed:
                    self._route_bump(table, col, stored[col], index, +1)
        return stored

    def get(self, table: str, pk: Any) -> Row:
        self.schema(table)
        return self.shards[self._shard_of(table, pk)].get(table, pk)

    def exists(self, table: str, pk: Any) -> bool:
        self.schema(table)
        return self.shards[self._shard_of(table, pk)].exists(table, pk)

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        schema = self.schema(table)
        if column not in schema.unique:
            raise ValidationError(f"{table}: {column} has no unique index")
        for index in self._route_shards(table, column, value):
            try:
                return self.shards[index].get_by_unique(table, column, value)
            except NotFoundError:
                continue
        raise NotFoundError(f"{table}: no row with {column}={value!r}")

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        schema = self.schema(table)
        index = self._shard_of(table, pk)
        for col in schema.unique:
            if col in changes and changes[col] is not None:
                owners = self._route_shards(table, col, changes[col])
                if any(owner != index for owner in owners):
                    raise ValidationError(
                        f"{table}: unique constraint violated on "
                        f"{col}={changes[col]!r}"
                    )
        tracked = [c for c in self._routed[table] if c in changes]
        old = self.shards[index].get(table, pk) if tracked else None
        row = self.shards[index].update(table, pk, changes)
        if tracked:
            self._route_adjust(table, old, index, -1)
            self._route_adjust(table, row, index, +1)
        return row

    def delete(self, table: str, pk: Any) -> Row:
        self.schema(table)
        index = self._shard_of(table, pk)
        row = self.shards[index].delete(table, pk)
        self._route_adjust(table, row, index, -1)
        return row

    # -- queries ------------------------------------------------------------

    def _shards_for_query(self, table: str, where: Optional[Row]) -> Iterable[int]:
        schema = self.schema(table)
        if where:
            if schema.primary_key in where:
                return [self._shard_of(table, where[schema.primary_key])]
            for col in self._routed[table]:
                if col in where:
                    return self._route_shards(table, col, where[col])
        return range(len(self.shards))

    def select(
        self,
        table: str,
        where: Optional[Row] = None,
        predicate: Optional[Predicate] = None,
    ) -> List[Row]:
        results: List[Row] = []
        for index in self._shards_for_query(table, where):
            results.extend(self.shards[index].select(table, where, predicate))
        return results

    def count(self, table: str, where: Optional[Row] = None) -> int:
        return sum(
            self.shards[index].count(table, where)
            for index in self._shards_for_query(table, where)
        )

    # -- transactions ---------------------------------------------------------

    def transaction(self) -> Transaction:
        """One atomic block across every shard."""
        return Transaction(self)

    def begin(self) -> None:
        """Begin every shard in shard order, so two blocks cannot deadlock
        on each other's shard locks."""
        begun = 0
        try:
            for shard in self.shards:
                shard.begin()
                begun += 1
        except BaseException:
            self._roll_back(begun)
            raise
        self._route_marks.append(len(self._route_log))
        self._logging.log = self._route_log

    def _end_block(self) -> Tuple[List[tuple], int]:
        """Pop the innermost block's mark; returns the log it indexes.  The
        outermost block hands this thread's log over before any shard is
        released, so the next block starts on a fresh one."""
        log = self._route_log
        mark = self._route_marks.pop()
        if not self._route_marks:
            self._route_log = []
            self._logging.log = None
        return log, mark

    def commit(self) -> None:
        """Commit every shard in reverse shard order.  If one refuses, it has
        rolled itself back, the shards below it roll back too, and their
        route bumps are undone before another thread can claim a route."""
        log, mark = self._end_block()
        with self._route_lock:
            index = len(self.shards)
            try:
                while index:
                    index -= 1
                    self.shards[index].commit()
            except BaseException:
                self._undo_routes(log, mark, index + 1)
                self._roll_back(index)
                raise

    def rollback(self) -> None:
        """Restore the routes, then roll back every shard in reverse order."""
        log, mark = self._end_block()
        with self._route_lock:
            self._undo_routes(log, mark, len(self.shards))
        self._roll_back(len(self.shards))

    def _roll_back(self, count: int) -> None:
        """Roll back shards ``count - 1`` down to 0, every one of them even
        if one raises (the first error propagates)."""
        error = None
        for index in range(count - 1, -1, -1):
            try:
                self.shards[index].rollback()
            except BaseException as exc:
                error = error or exc
        if error is not None:
            raise error
