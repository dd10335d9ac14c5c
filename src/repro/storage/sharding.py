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

A block takes the engine's block lock (blocks run one at a time) and
begins a shard at its first op there, once per open level; it ends only
those shards, highest first.  No deadlock: only the block's thread holds
several shard locks, a lone op waits on nothing while it holds its shard's,
and nobody waits for a shard lock while holding the route lock.  An abort
undoes the route bumps the block's own thread made, newest first, before
any shard is let go; a unique value the block released stays claimed
against other threads until the outermost block ends.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import NotFoundError, ValidationError
from repro.storage.engine import Row, StorageEngine, Transaction
from repro.storage.schema import TableSchema

#: Ring points per shard: enough that keys spread evenly across shards.
VIRTUAL_NODES = 64


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per run).  A
    lone surrogate — login names are outside input — hashes, never raises."""
    digest = blake2b(key.encode("utf-8", "surrogatepass"), digest_size=8).digest()
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
        self.points = [h for h, _ in points]
        #: The shard owning the arc up to each point; past the last, the first.
        self.owners = [s for _, s in points] + [points[0][1]]

    def shard_for(self, key: str) -> int:
        return self.owners[bisect_right(self.points, stable_hash(key))]


class _RouteLog(threading.local):
    """This thread's open block's route undo log, else None (in every thread
    but the block's own): a row op's "in a block?" test, read with no call."""

    log: Optional[List[tuple]] = None


class _Tables(dict):
    """Table name -> its schema, or its routed columns: a row op's one
    subscript, no frame on a hit, ``NotFoundError`` for an unknown table."""

    def __missing__(self, table: str) -> TableSchema:
        raise NotFoundError(f"no such table: {table}")


class ShardedEngine:
    """N engines behind one :class:`StorageEngine` surface."""

    def __init__(self, shards: Sequence[StorageEngine]) -> None:
        self.shards: List[StorageEngine] = list(shards)
        if not self.shards:
            raise ValueError("sharded engine needs at least one shard")
        self._ring = HashRing(len(self.shards))
        self._schemas: Dict[str, TableSchema] = _Tables()
        #: table -> its indexed then unique columns, each once (what is routed)
        self._routed: Dict[str, Tuple[str, ...]] = _Tables()
        # (table, column) -> value -> {shard index: row refcount}
        self._routes: Dict[Tuple[str, str], Dict[Any, Dict[int, int]]] = {}
        self._route_lock = threading.Lock()
        #: Held from a block's begin to its end: blocks run one at a time.
        self._block_lock = threading.RLock()
        #: The open block's state: the shards it has begun (each once per open
        #: level), ``(table, column, value, shard, delta)`` per route bump its
        #: thread made with the log's length at each open begin, and ``(table,
        #: column, value)`` per unique value it released, held until it ends.
        self._begun: List[int] = []
        self._route_log: List[tuple] = []
        self._route_marks: List[int] = []
        self._held: Set[tuple] = set()
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
        return self._schemas[table]

    # -- placement ----------------------------------------------------------

    def _shard_of(self, table: str, pk: Any) -> int:
        """``HashRing.shard_for(f"{table}/{pk!r}")`` in one frame, the hash inlined."""
        key = f"{table}/{pk!r}".encode("utf-8", "surrogatepass")
        point = int.from_bytes(blake2b(key, digest_size=8).digest(), "big")
        return self._ring.owners[bisect_right(self._ring.points, point)]

    def _open(self, index: int) -> StorageEngine:
        """Shard ``index`` for this thread's open block, begun at its first op
        there once per open level (outside a block: ``self.shards[index]``)."""
        shard = self.shards[index]
        if index not in self._begun:
            for _ in self._route_marks:  # one mark per open level
                shard.begin()
            self._begun.append(index)
        return shard

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
        hold = delta < 0 and self._logging.log is not None  # held until it ends
        with self._route_lock:
            for col in self._routed[table]:
                value = row[col]
                if col in schema.unique and col not in schema.indexed and value is None:
                    continue  # NULLs never participate in unique constraints
                self._route_bump(table, col, value, index, delta)
                if hold and col in schema.unique:
                    self._held.add((table, col, value))

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
        schema = self._schemas[table]
        pk = row.get(schema.primary_key)
        if pk is None:
            raise ValidationError(f"{table}: missing primary key")
        index = self._shard_of(table, pk)
        claimed = self._claim(table, row, index, None)
        try:
            shard = self.shards[index] if self._logging.log is None else self._open(index)
            stored = shard.insert(table, row)
        except BaseException:
            self._release(table, claimed, index)
            raise
        # Claimed unique columns are already routed (an unclaimed unique-only
        # column holds None, which is not routed); route the indexed rest.
        with self._route_lock:
            for col in schema.indexed:
                if (col, stored[col]) not in claimed:
                    self._route_bump(table, col, stored[col], index, +1)
        return stored

    def get(self, table: str, pk: Any) -> Row:
        index = self._shard_of(table, pk)
        shard = self.shards[index] if self._logging.log is None else self._open(index)
        return shard.get(table, pk)

    def exists(self, table: str, pk: Any) -> bool:
        index = self._shard_of(table, pk)
        shard = self.shards[index] if self._logging.log is None else self._open(index)
        return shard.exists(table, pk)

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        if column not in self._schemas[table].unique:
            raise ValidationError(f"{table}: {column} has no unique index")
        for index in self._route_shards(table, column, value):
            shard = self.shards[index] if self._logging.log is None else self._open(index)
            try:
                return shard.get_by_unique(table, column, value)
            except NotFoundError:
                continue
        raise NotFoundError(f"{table}: no row with {column}={value!r}")

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        index = self._shard_of(table, pk)
        tracked = [c for c in self._routed[table] if c in changes]
        claimed = self._claim(table, changes, index, index) if tracked else []
        try:
            shard = self.shards[index] if self._logging.log is None else self._open(index)
            old = shard.get(table, pk) if tracked else None
            row = shard.update(table, pk, changes)
        except BaseException:
            self._release(table, claimed, index)
            raise
        if tracked:
            self._route_adjust(table, old, index, -1)
            self._route_adjust(table, row, index, +1)
            self._release(table, claimed, index)  # the row's own route holds them now
        return row

    def _claim(
        self, table: str, values: Row, index: int, mine: Optional[int]
    ) -> List[Tuple[str, Any]]:
        """Claim the unique values in ``values`` for shard ``index`` before its
        write, so a concurrent write of one of them on another shard sees the
        claim and fails (two on one shard meet at that shard's own check).
        A value is taken if a shard other than ``mine`` routes it (an update's
        own shard may: it may be the row itself), or an open block of another
        thread released it."""
        claimed: List[Tuple[str, Any]] = []
        with self._route_lock:
            for col in self._schemas[table].unique:
                value = values.get(col)
                if value is None:
                    continue
                owners = self._routes[(table, col)].get(value)
                if (owners and (mine not in owners or len(owners) > 1)) or (
                    self._logging.log is None and (table, col, value) in self._held
                ):
                    for undo_col, undo_value in claimed:
                        self._route_bump(table, undo_col, undo_value, index, -1)
                    raise ValidationError(
                        f"{table}: unique constraint violated on {col}={value!r}"
                    )
                self._route_bump(table, col, value, index, +1)
                claimed.append((col, value))
        return claimed

    def _release(self, table: str, claimed: List[Tuple[str, Any]], index: int) -> None:
        if claimed:
            with self._route_lock:
                for col, value in claimed:
                    self._route_bump(table, col, value, index, -1)

    def delete(self, table: str, pk: Any) -> Row:
        index = self._shard_of(table, pk)
        shard = self.shards[index] if self._logging.log is None else self._open(index)
        row = shard.delete(table, pk)
        self._route_adjust(table, row, index, -1)
        return row

    # -- queries ------------------------------------------------------------

    def _shards_for_query(self, table: str, where: Optional[Row]) -> Iterable[int]:
        schema = self._schemas[table]
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
    ) -> List[Row]:
        """``_shards_for_query``'s shards, routed in this frame: the validate
        path's token-row read makes one call per layer."""
        indices: Optional[Iterable[int]] = None
        if where:
            schema = self._schemas[table]
            if schema.primary_key in where:
                indices = (self._shard_of(table, where[schema.primary_key]),)
            else:
                for col in self._routed[table]:
                    if col in where:
                        with self._route_lock:
                            owners = self._routes[(table, col)].get(where[col])
                            indices = sorted(owners) if owners else ()
                        break
        if indices is None:
            indices = range(len(self.shards))
        results: List[Row] = []
        for index in indices:
            shard = self.shards[index] if self._logging.log is None else self._open(index)
            results += shard.select(table, where)
        return results

    def count(self, table: str, where: Optional[Row] = None) -> int:
        total = 0
        for index in self._shards_for_query(table, where):
            shard = self.shards[index] if self._logging.log is None else self._open(index)
            total += shard.count(table, where)
        return total

    # -- transactions ---------------------------------------------------------

    def transaction(self) -> Transaction:
        """One atomic block over the shards it touches."""
        return Transaction(self)

    def begin(self) -> None:
        """Take the block lock; nested, a savepoint on every shard the block holds."""
        self._block_lock.acquire()
        for index in self._begun:
            self.shards[index].begin()
        self._route_marks.append(len(self._route_log))
        self._logging.log = self._route_log

    def _end_block(self) -> Tuple[List[tuple], int, List[int]]:
        """Pop the innermost mark: the log it indexes and the begun shards,
        highest first (the outermost block leaves fresh state to the next)."""
        log = self._route_log
        mark = self._route_marks.pop()
        begun = sorted(self._begun, reverse=True)
        if not self._route_marks:
            self._route_log, self._begun = [], []
            self._logging.log = None
        return log, mark, begun

    def commit(self) -> None:
        """Commit the begun shards, highest first.  If one refuses, it has
        rolled itself back, the begun shards below it roll back too, and
        their route bumps are undone before another thread can claim a route."""
        log, mark, begun = self._end_block()
        committed = 0
        try:
            with self._route_lock:
                try:
                    for index in begun:
                        self.shards[index].commit()
                        committed += 1
                except BaseException:
                    self._undo_routes(log, mark, begun[committed] + 1)
                    self._roll_back(begun[committed + 1:])
                    raise
                finally:
                    if not self._route_marks:
                        self._held.clear()
        finally:
            self._block_lock.release()

    def rollback(self) -> None:
        """Restore the routes, then roll back the begun shards, highest first."""
        log, mark, begun = self._end_block()
        try:
            with self._route_lock:
                self._undo_routes(log, mark, len(self.shards))
                if not self._route_marks:
                    self._held.clear()
            self._roll_back(begun)
        finally:
            self._block_lock.release()

    def _roll_back(self, indices: List[int]) -> None:
        """Roll back each of these shards, every one of them even if one
        raises (the first error propagates)."""
        error = None
        for index in indices:
            try:
                self.shards[index].rollback()
            except BaseException as exc:
                error = error or exc
        if error is not None:
            raise error
