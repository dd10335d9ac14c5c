"""Pluggable storage engines for the OTP path (the MariaDB stand-in tier).

The package extracts the relational store behind
:class:`repro.otpserver.database.Database` into a composable engine stack
(each wrapper a :class:`~repro.storage.engine.Layer` that declares only
what it changes; :func:`shards_of` reaches a stack's shards and
:func:`find_layer` one layer's extras):

* :class:`InMemoryEngine` — dict-backed tables with **undo-log
  transactions** (abort cost is O(ops touched), not O(database size));
* :class:`WALEngine` — one durable shard: write-ahead logging with CRC'd
  canonical-JSON records, periodic snapshots, deterministic :func:`replay`
  recovery (same log ⇒ same :func:`state_digest`), and optionally N
  synchronous log-shipping replicas with deterministic promotion on a
  primary crash and rejoin-by-replay;
* :class:`ShardedEngine` — consistent-hash placement across N shards with
  per-shard lock striping and routed secondary lookups;
* :class:`CachingEngine` — read-through cache over point lookups with
  write-invalidation;
* :class:`InstrumentedEngine` — op latency/count series in the telemetry
  registry (outermost, and only when telemetry is on).

:func:`build_engine` assembles the stack from a :class:`StorageConfig`;
``OTPServer``/``MFACenter`` accept either a config or a ready engine via
their ``storage`` argument, and the CLI exposes
``status --shards N --durability --replicas N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.storage.cache import CachingEngine
from repro.storage.engine import Row, StorageEngine, find_layer, shards_of
from repro.storage.instrument import InstrumentedEngine
from repro.storage.memory import InMemoryEngine
from repro.storage.schema import TableSchema
from repro.storage.sharding import HashRing, ShardedEngine
from repro.storage.wal import (
    WALEngine,
    WriteAheadLog,
    load_wal,
    replay,
    state_digest,
    wal_digests,
)
from repro.telemetry import resolve_registry


@dataclass(frozen=True)
class StorageConfig:
    """How to assemble the engine stack for one deployment.

    ``durability`` turns on write-ahead logging (per shard when sharded);
    ``replicas`` > 0 additionally gives every shard that many log-shipping
    replicas (and implies durability, since replication *is* log shipping);
    ``wal_dir`` persists each shard's log to ``<wal_dir>/shardN.wal``.
    """

    shards: int = 1
    cache_capacity: int = 0  # 0 disables the read-through cache
    durability: bool = False
    replicas: int = 0
    snapshot_every: int = 0
    wal_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.cache_capacity < 0 or self.replicas < 0 or self.snapshot_every < 0:
            raise ValueError("invalid storage configuration")

    @property
    def durable(self) -> bool:
        return self.durability or self.replicas > 0


def build_engine(
    config: StorageConfig = None, telemetry=None, clock=None
) -> StorageEngine:
    """Assemble cache → shards → WAL (+ replicas) → memory, instrumented
    when telemetry is on.  Every shard is built by one recipe; a
    ``ShardedEngine`` goes over them only when there is more than one.

    ``clock`` is the deployment clock op durations are read from and a
    shard's simulated round trip (``set_latency``, free until set) is
    charged to; None keeps wall time (real sleeps).
    """
    config = config or StorageConfig()
    telemetry = resolve_registry(telemetry)

    def node() -> InMemoryEngine:
        return InMemoryEngine(clock=clock)

    def shard(index: int) -> StorageEngine:
        if not config.durable:
            return node()
        return WALEngine(
            node(),
            path=f"{config.wal_dir}/shard{index}.wal" if config.wal_dir else None,
            snapshot_every=config.snapshot_every,
            telemetry=telemetry,
            replicas=config.replicas,
            engine_factory=node,
        )

    engine = shard(0) if config.shards == 1 else ShardedEngine(
        [shard(index) for index in range(config.shards)]
    )
    if config.cache_capacity:
        engine = CachingEngine(engine, config.cache_capacity)
    if not telemetry.enabled:
        return engine  # off means absent: nothing times ops nobody will read
    return InstrumentedEngine(engine, telemetry=telemetry, clock=clock)


__all__ = [
    "CachingEngine",
    "HashRing",
    "InMemoryEngine",
    "InstrumentedEngine",
    "Row",
    "ShardedEngine",
    "StorageConfig",
    "StorageEngine",
    "TableSchema",
    "WALEngine",
    "WriteAheadLog",
    "build_engine",
    "find_layer",
    "load_wal",
    "replay",
    "shards_of",
    "state_digest",
    "wal_digests",
]
