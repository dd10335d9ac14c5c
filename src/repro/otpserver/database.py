"""The relational façade standing in for MariaDB.

The paper keeps user/token state in "an encrypted MariaDB relational
database" (Section 3.1).  We reproduce the properties the workflows rely
on — named tables with column schemas, primary keys, unique constraints,
secondary indices, and all-or-nothing transactions — without an external
server.  Secrets never enter rows in the clear; the OTP server seals them
first (see :mod:`repro.crypto.secrets`).

Since the storage-engine extraction this module is a thin view layer: the
actual row storage lives behind a pluggable
:class:`~repro.storage.engine.StorageEngine` (in-memory with undo-log
transactions by default; sharded and/or cached via
:func:`repro.storage.build_engine`).  :class:`Table` is a bound,
table-qualified view over one engine table, so existing callers keep the
``db.table("tokens").select(...)`` surface they always had.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import NotFoundError
from repro.storage import InMemoryEngine, StorageEngine, TableSchema

__all__ = ["Database", "Table", "TableSchema"]


class Table:
    """One table of a storage engine, bound to its name."""

    def __init__(self, engine: StorageEngine, name: str) -> None:
        self._engine = engine
        self.name = name

    @property
    def schema(self) -> TableSchema:
        return self._engine.schema(self.name)

    def __len__(self) -> int:
        return self._engine.count(self.name)

    def insert(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Insert a row; enforces primary-key and unique constraints."""
        return self._engine.insert(self.name, row)

    def get(self, pk: Any) -> Dict[str, Any]:
        return self._engine.get(self.name, pk)

    def exists(self, pk: Any) -> bool:
        return self._engine.exists(self.name, pk)

    def get_by_unique(self, column: str, value: Any) -> Dict[str, Any]:
        return self._engine.get_by_unique(self.name, column, value)

    def update(self, pk: Any, changes: Dict[str, Any]) -> Dict[str, Any]:
        """Update columns of an existing row, maintaining all indices."""
        return self._engine.update(self.name, pk, changes)

    def delete(self, pk: Any) -> Dict[str, Any]:
        return self._engine.delete(self.name, pk)

    def select(self, where: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """Return matching rows; equality ``where`` uses indices when it can."""
        return self._engine.select(self.name, where=where)

    def count(self, where: Optional[Dict[str, Any]] = None) -> int:
        return self._engine.count(self.name, where=where)


class Database:
    """A named collection of tables over one storage engine."""

    def __init__(self, name: str = "linotp", engine: Optional[StorageEngine] = None) -> None:
        self.name = name
        self.engine: StorageEngine = engine if engine is not None else InMemoryEngine()
        self._views: Dict[str, Table] = {}

    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        primary_key: str,
        unique: Sequence[str] = (),
        indexed: Sequence[str] = (),
    ) -> Table:
        self.engine.create_table(name, TableSchema(columns, primary_key, unique, indexed))
        view = self._views[name] = Table(self.engine, name)
        return view

    def table(self, name: str) -> Table:
        view = self._views.get(name)
        if view is None:
            if not self.engine.has_table(name):
                raise NotFoundError(f"no such table: {name}")
            view = self._views[name] = Table(self.engine, name)
        return view

    def tables(self) -> List[str]:
        return list(self.engine.tables())

    def transaction(self):
        """All-or-nothing update block: any exception rolls every table back.

        Pairing workflows touch the token table, the audit table and the
        challenge table together; the paper's portal hardening against
        mid-flow refreshes depends on partial writes never being visible.
        Under the default engine this is an undo-log savepoint (O(ops
        touched)); under the sharded engine it spans every shard.
        """
        return self.engine.transaction()
