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

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.storage.schema import TableSchema

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]


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
        predicate: Optional[Predicate] = None,
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
    inner layer's, so a block costs one call per layer (and per shard) on
    the way in and one on the way out.
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


def find_layer(engine: Any, attr: str) -> Optional[Any]:
    """Walk an engine stack's ``.inner`` chain to the first layer *defining*
    ``attr`` in its class (not merely delegating it via ``__getattr__``).

    The assembled stack is instrumentation → cache → sharding/replication →
    memory; capabilities like the cache's ``cache_info`` or the
    replication layer's ``crash_primary`` live on one specific layer.
    Returns ``None`` when no layer owns the attribute.
    """
    layer = engine
    while layer is not None:
        if any(attr in vars(klass) for klass in type(layer).__mro__):
            return layer
        layer = getattr(layer, "inner", None)
    return None
