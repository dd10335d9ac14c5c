"""A read-through cache in front of any storage engine.

Hot token/user lookups on the validate path are point reads (``get`` by
serial, ``get_by_unique`` by user id); the cache keeps the latest
``capacity`` of them (a :class:`~repro.common.cache.BoundedCache`) and
invalidates on write, so a login storm against the same accounts stops
paying the backing engine's round trip.

Invalidation rules:

* ``update``/``delete`` drop the row's primary-key entry plus every cached
  unique-lookup entry for that table (the write may have been *to* the row
  a unique entry points at, and the mapping from unique value to row is
  not recoverable from the key alone).
* ``insert`` invalidates nothing — misses are never cached, so there is no
  stale negative entry to correct.
* an aborted (or refused) transaction clears the whole cache: reads
  inside the block may have cached uncommitted state that the rollback
  then reverted.
* a point read whose fetch overlapped an invalidation fills nothing: the
  row it fetched may be the one that write replaced.

``select``/``count`` pass straight through (range scans would thrash a
point cache).  Cached values are raw storage rows, so nothing outside a
write to the row — no schema addition, no policy change — can stale one.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Set

from repro.common.cache import MISSING, BoundedCache
from repro.storage.engine import Layer, Row, StorageEngine


class CachingEngine(Layer):
    """Read-through wrapper with write invalidation."""

    def __init__(self, inner: StorageEngine, capacity: int) -> None:
        super().__init__(inner)
        self._cache = BoundedCache(capacity)
        #: Cached unique-lookup keys per table, for O(per-table) invalidation.
        self._unique_keys: Dict[str, Set[tuple]] = {}
        #: Bumped by every invalidation; a fetch that saw it move fills nothing.
        self._generation = 0
        self._lock = threading.Lock()

    # -- cache plumbing -----------------------------------------------------

    def _read_through(self, key: tuple, table: str, fetch, *args: Any) -> Row:
        with self._lock:
            row = self._cache.get(key)
            generation = self._generation
        if row is not MISSING:
            return dict(row)
        row = fetch(table, *args)
        with self._lock:
            if self._generation != generation:
                return row
            if key[1] == "unique":
                self._unique_keys.setdefault(table, set()).add(key)
            evicted = self._cache.put(key, dict(row))
            if evicted is not MISSING and evicted[1] == "unique":
                self._unique_keys.get(evicted[0], set()).discard(evicted)
        return row

    def _invalidate_row(self, table: str, pk: Any) -> None:
        with self._lock:
            self._generation += 1
            self._cache.pop((table, "pk", pk))
            for key in self._unique_keys.pop(table, ()):
                self._cache.pop(key)

    def _clear(self) -> None:
        with self._lock:
            self._generation += 1
            self._cache.clear()
            self._unique_keys.clear()

    def cache_info(self) -> Dict[str, object]:
        with self._lock:
            return self._cache.snapshot()

    def describe(self) -> Dict[str, Any]:
        """The wrapped engine's status with this cache as its ``cache``."""
        return {**self.inner.describe(), "cache": self.cache_info()}

    # -- reads --------------------------------------------------------------

    def get(self, table: str, pk: Any) -> Row:
        return self._read_through((table, "pk", pk), table, self.inner.get, pk)

    def exists(self, table: str, pk: Any) -> bool:
        with self._lock:
            if (table, "pk", pk) in self._cache:
                return True
        return self.inner.exists(table, pk)

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        key = (table, "unique", column, value)
        return self._read_through(key, table, self.inner.get_by_unique, column, value)

    # -- writes -------------------------------------------------------------

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        row = self.inner.update(table, pk, changes)
        self._invalidate_row(table, pk)
        return row

    def delete(self, table: str, pk: Any) -> Row:
        row = self.inner.delete(table, pk)
        self._invalidate_row(table, pk)
        return row

    def commit(self) -> None:
        try:
            self.inner.commit()
        except BaseException:  # refused: the block was rolled back below
            self._clear()
            raise

    def rollback(self) -> None:
        # Cleared while the inner block still holds its locks: a read the
        # block cached is gone before another thread could hit it.
        try:
            self._clear()
        finally:
            self.inner.rollback()
