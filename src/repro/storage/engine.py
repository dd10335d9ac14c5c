"""The storage-engine seam the OTP path runs on.

The paper's LinOTP keeps its state in "an encrypted MariaDB relational
database"; the reproduction originally hard-wired one in-memory store into
the OTP server.  :class:`StorageEngine` extracts the operations every
consumer actually needs — table-qualified CRUD, indexed selection and
all-or-nothing transactions — so the backing tier can be swapped (sharded,
cached, instrumented, or a composition of all three) without the server,
admin API, portal or simulator noticing.

Engines return *copies* of rows: mutating a returned dict never mutates
stored state.  All engines raise the shared error vocabulary
(:class:`~repro.common.errors.ValidationError` for constraint violations,
:class:`~repro.common.errors.NotFoundError` for missing rows/tables).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

from repro.storage.schema import TableSchema

Row = Dict[str, Any]


@runtime_checkable
class StorageEngine(Protocol):
    """What the relational façade (and anything else) may ask of storage."""

    # -- schema ------------------------------------------------------------
    def create_table(self, name: str, schema: TableSchema) -> None: ...

    def has_table(self, name: str) -> bool: ...

    def tables(self) -> List[str]: ...

    def schema(self, table: str) -> TableSchema: ...

    # -- row operations ----------------------------------------------------
    def insert(self, table: str, row: Row) -> Row: ...

    def get(self, table: str, pk: Any) -> Row: ...

    def exists(self, table: str, pk: Any) -> bool: ...

    def get_by_unique(self, table: str, column: str, value: Any) -> Row: ...

    def update(self, table: str, pk: Any, changes: Row) -> Row: ...

    def delete(self, table: str, pk: Any) -> Row: ...

    def select(
        self,
        table: str,
        where: Optional[Row] = None,
    ) -> List[Row]: ...

    def count(self, table: str, where: Optional[Row] = None) -> int: ...

    def row_count(self, table: Optional[str] = None) -> int: ...

    # -- transactions ------------------------------------------------------
    def begin(self) -> None:
        """Open a block (a savepoint inside an open one) and hold this
        engine's lock until the matching :meth:`commit` or :meth:`rollback`."""
        ...

    def commit(self) -> None:
        """Close the innermost block and keep its writes; a layer that
        raises here has already rolled the block back."""
        ...

    def rollback(self) -> None:
        """Close the innermost block and undo its writes."""
        ...

    def transaction(self) -> "Transaction":
        """``Transaction(self)``: the block's ``with`` statement."""
        ...

    # -- operator view -----------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The storage section of ``OTPServer.status()``: ``tables`` (row
        counts), ``cache``, and one ``shards`` entry per shard carrying its
        ``tables``, ``wal`` and ``replication`` facts.  Same keys on every
        stack; a wrapper fills in what it owns over its inner engine's
        answer (:meth:`InMemoryEngine.describe` has the defaults)."""
        ...


class Transaction:
    """``with engine.transaction():`` over the begin/commit/rollback protocol.

    Entering begins the engine's block and hands back the engine; leaving
    commits it, or rolls it back on any exception, which then propagates.
    Every layer of a stack implements the three methods by calling its
    inner layer's, so a block costs one call per layer (and per shard it
    touches: a sharded stack begins a shard at the block's first op there)
    on the way in and one on the way out.
    """

    __slots__ = ("engine",)

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine

    def __enter__(self) -> StorageEngine:
        self.engine.begin()
        return self.engine

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None:
            self.engine.commit()
        else:
            self.engine.rollback()


#: The ops a layer passes through to ``inner`` unless it declares its own.
PASS_THROUGH = (
    "create_table", "has_table", "tables", "schema", "insert", "get", "exists",
    "get_by_unique", "select", "count", "row_count", "begin", "describe",
)


class Layer:
    """One layer of an engine stack over ``inner``: the reads, schema ops,
    ``insert``, ``begin``, ``transaction`` and ``describe`` pass through; each
    layer declares its writes.  :func:`find_layer` reaches a layer's extras.

    A layer costs no frame for an op it does not declare: :meth:`_bind` sets
    it to the method ``inner``'s class defines (over an inner layer, the
    forwarder below, never that layer's binding), so only a layer that swaps
    ``inner`` must bind again."""

    def __init__(self, inner: StorageEngine) -> None:
        self.inner = inner
        self._bind()

    def _bind(self) -> None:
        inner = self.inner
        for op in PASS_THROUGH:
            own = getattr(type(inner), op, None)
            if getattr(type(self), op) is getattr(Layer, op) and own is not None:
                setattr(self, op, own.__get__(inner))

    def create_table(self, name: str, schema: TableSchema) -> None:
        self.inner.create_table(name, schema)

    def has_table(self, name: str) -> bool:
        return self.inner.has_table(name)

    def tables(self) -> List[str]:
        return self.inner.tables()

    def schema(self, table: str) -> TableSchema:
        return self.inner.schema(table)

    def insert(self, table: str, row: Row) -> Row:
        return self.inner.insert(table, row)

    def get(self, table: str, pk: Any) -> Row:
        return self.inner.get(table, pk)

    def exists(self, table: str, pk: Any) -> bool:
        return self.inner.exists(table, pk)

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        return self.inner.get_by_unique(table, column, value)

    def select(
        self,
        table: str,
        where: Optional[Row] = None,
    ) -> List[Row]:
        return self.inner.select(table, where)

    def count(self, table: str, where: Optional[Row] = None) -> int:
        return self.inner.count(table, where)

    def row_count(self, table: Optional[str] = None) -> int:
        return self.inner.row_count(table)

    def begin(self) -> None:
        self.inner.begin()

    def transaction(self) -> Transaction:
        # Over this layer, not ``inner``: the block runs through this begin.
        return Transaction(self)

    def describe(self) -> Dict[str, Any]:
        return self.inner.describe()


def find_layer(engine: Any, attr: str) -> Optional[Any]:
    """The first layer down an engine stack's ``.inner`` chain that has
    ``attr``, or ``None``: the one way to reach an extra such as the cache's
    ``cache_info`` or the WAL layer's ``crash_primary``, since no layer
    forwards what it does not declare.
    """
    layer = engine
    while layer is not None:
        if hasattr(layer, attr):
            return layer
        layer = getattr(layer, "inner", None)
    return None


def shards_of(engine: Any) -> List[Any]:
    """The stack's shards, in ring order: the sharded layer's ``shards``, or
    ``[engine]`` for an unsharded stack (its own one shard).  The one way to
    reach a shard; :func:`find_layer` then reaches that shard's extras."""
    sharded = find_layer(engine, "shards")
    return sharded.shards if sharded is not None else [engine]
