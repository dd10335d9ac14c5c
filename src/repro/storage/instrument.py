"""Telemetry wrapper: every engine op becomes a timed, counted series.

Wraps any :class:`~repro.storage.engine.StorageEngine` and reports into
the PR-1 registry:

* ``storage_op_seconds{op,table}`` — latency histogram per operation (its
  ``_count`` series is the operation counter);
* ``storage_transactions_total{outcome}`` — commit/abort counter.

Over the no-op registry it would cost two clock reads and a no-op call per
operation, so ``build_engine`` leaves it out when telemetry is off.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.storage.engine import Layer, Predicate, Row, StorageEngine
from repro.telemetry import resolve_registry

#: Bucket bounds tuned for in-process/microsecond-scale engine operations
#: (the registry default is tuned for whole-login latencies).
OP_LATENCY_BUCKETS = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1,
)


class _BlockStarts(threading.local):
    """Each thread's open blocks' start times, innermost last: two threads'
    blocks never share one."""

    def __init__(self) -> None:
        self.stack: List[float] = []


class InstrumentedEngine(Layer):
    """Times and counts every operation of the wrapped engine."""

    def __init__(
        self,
        inner: StorageEngine,
        telemetry=None,
        clock: Optional[Clock] = None,
    ) -> None:
        super().__init__(inner)
        # Durations come off the injected clock: wall time in production,
        # simulated seconds when the deployment runs on a VirtualClock (a
        # virtual-latency round trip then shows up in the histogram).
        self._clock = clock or WallClock()
        telemetry = resolve_registry(telemetry)
        self._h_latency = telemetry.histogram(
            "storage_op_seconds",
            "storage engine operation latency",
            buckets=OP_LATENCY_BUCKETS,
        )
        #: ``(op, table)`` → its bound series, filled on first use: tables
        #: are created after the wrapper is.
        self._h_by_op: Dict[Tuple[str, str], Any] = {}
        self._h_txn = self._h_latency.labels(op="transaction", table="*")
        txn = telemetry.counter(
            "storage_transactions_total", "storage transactions by outcome"
        )
        self._c_commit = txn.labels(outcome="commit")
        self._c_abort = txn.labels(outcome="abort")
        self._starts = _BlockStarts()

    def _timed(self, op: str, table: str, fn, *args):
        start = self._clock.now()
        try:
            return fn(*args)
        finally:
            elapsed = self._clock.now() - start
            try:
                series = self._h_by_op[op, table]
            except KeyError:
                series = self._h_by_op[op, table] = self._h_latency.labels(
                    op=op, table=table
                )
            series.observe(elapsed)

    # -- row operations -----------------------------------------------------

    def insert(self, table: str, row: Row) -> Row:
        return self._timed("insert", table, self.inner.insert, table, row)

    def get(self, table: str, pk: Any) -> Row:
        return self._timed("get", table, self.inner.get, table, pk)

    def exists(self, table: str, pk: Any) -> bool:
        return self._timed("exists", table, self.inner.exists, table, pk)

    def get_by_unique(self, table: str, column: str, value: Any) -> Row:
        return self._timed(
            "get_by_unique", table, self.inner.get_by_unique, table, column, value
        )

    def update(self, table: str, pk: Any, changes: Row) -> Row:
        return self._timed("update", table, self.inner.update, table, pk, changes)

    def delete(self, table: str, pk: Any) -> Row:
        return self._timed("delete", table, self.inner.delete, table, pk)

    def select(
        self,
        table: str,
        where: Optional[Row] = None,
        predicate: Optional[Predicate] = None,
    ) -> List[Row]:
        return self._timed("select", table, self.inner.select, table, where, predicate)

    def count(self, table: str, where: Optional[Row] = None) -> int:
        return self._timed("count", table, self.inner.count, table, where)

    # -- transactions ---------------------------------------------------------

    def begin(self) -> None:
        start = self._clock.now()  # the block's time includes its lock wait
        self.inner.begin()
        self._starts.stack.append(start)

    def commit(self) -> None:
        try:
            self.inner.commit()
        except BaseException:
            self._c_abort.inc()
            raise
        else:
            self._c_commit.inc()
        finally:
            self._h_txn.observe(self._clock.now() - self._starts.stack.pop())

    def rollback(self) -> None:
        try:
            self.inner.rollback()
        finally:
            self._c_abort.inc()
            self._h_txn.observe(self._clock.now() - self._starts.stack.pop())
