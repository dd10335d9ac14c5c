"""Per-shard replication: primary + N log-shipping replicas, promotion, rejoin.

:class:`ReplicaGroup` is the durability unit for one shard: the primary
engine's mutations go through a :class:`~repro.storage.wal.WALEngine`, and
every appended record is shipped synchronously to the group's live
replicas, which apply it and advance their ``applied_lsn``.  Because
shipping is synchronous, a replica is never behind at an operation
boundary — the reproduction of the paper's "no lost pairings" durability
bar under a primary crash.

:class:`ReplicatedEngine` is a :class:`~repro.storage.sharding.ShardedEngine`
whose shards are replica groups, so consistent-hash placement, routed
secondary lookups, global unique claims and cross-shard transactions all
work unchanged; it adds the failure-handling verbs the chaos engine drives:

* :meth:`crash_primary` — kill a shard's primary.  Promotion is
  deterministic: the live replica with the highest ``applied_lsn`` wins,
  ties broken by lowest node id.  The promoted node is caught up from the
  group WAL before taking reads/writes, and the pre-crash/post-promotion
  state digests are returned so a chaos invariant can assert zero loss.
* :meth:`rejoin` — the crashed node returns empty and rebuilds purely by
  log replay (latest snapshot + tail), then re-enters the group as a
  replica.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import ValidationError
from repro.storage.engine import StorageEngine
from repro.storage.memory import InMemoryEngine
from repro.storage.sharding import ShardedEngine
from repro.storage.wal import WALEngine, WriteAheadLog, apply_record, replay, state_digest

__all__ = ["ReplicaGroup", "ReplicatedEngine"]


class _Replica:
    """One follower: an engine plus how far into the WAL it has applied."""

    __slots__ = ("node_id", "engine", "applied_lsn", "alive")

    def __init__(self, node_id: int, engine: StorageEngine, applied_lsn: int = 0) -> None:
        self.node_id = node_id
        self.engine = engine
        self.applied_lsn = applied_lsn
        self.alive = True


class ReplicaGroup(WALEngine):
    """A WAL-logged primary with synchronous log-shipping replicas.

    Extends :class:`WALEngine`: the wrapped ``inner`` engine is the current
    primary, and every record appended to the group WAL is immediately
    applied to each live replica.  Snapshot records ship as position marks
    only (replicas already hold that state).
    """

    def __init__(
        self,
        replicas: int = 1,
        engine_factory: Callable[[], StorageEngine] = InMemoryEngine,
        wal: Optional[WriteAheadLog] = None,
        path: Optional[str] = None,
        snapshot_every: int = 0,
        telemetry=None,
        name: str = "group0",
    ) -> None:
        if replicas < 0:
            raise ValueError(f"replica count must be >= 0, got {replicas}")
        super().__init__(
            inner=engine_factory(),
            wal=wal,
            path=path,
            snapshot_every=snapshot_every,
            telemetry=telemetry,
        )
        self.name = name
        self._engine_factory = engine_factory
        self._next_node = 0
        self.primary_id = self._take_node_id()
        self.replicas: List[_Replica] = [
            _Replica(self._take_node_id(), engine_factory()) for _ in range(replicas)
        ]
        self.promotions = 0
        self._crashed: Optional[int] = None  # node id awaiting rejoin

    def _take_node_id(self) -> int:
        node = self._next_node
        self._next_node += 1
        return node

    # -- shipping -----------------------------------------------------------

    def _log(self, record: dict) -> List[dict]:
        """Log, then apply what the WAL gained (nothing while a transaction
        buffers; a record and the snapshot it triggered), in LSN order, to
        every live replica."""
        gained = super()._log(record)
        for appended in gained:
            for replica in self.replicas:
                if replica.alive:
                    if appended["op"] != "snapshot":
                        apply_record(replica.engine, appended)
                    replica.applied_lsn = appended["lsn"]
        return gained

    # -- failure handling ---------------------------------------------------

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
            live = [replica for replica in self.replicas if replica.alive]
            if not live:
                raise ValidationError(
                    f"{self.name}: no live replica to promote (crashed primary "
                    f"with replicas exhausted)"
                )
            if self._crashed is not None:
                raise ValidationError(f"{self.name}: a node is already down")
            pre_digest = state_digest(self.inner)
            # Deterministic promotion: most caught-up wins, ties to the
            # lowest node id — every run picks the same new primary.
            best = max(live, key=lambda replica: (replica.applied_lsn, -replica.node_id))
            for record in self.wal.read()[best.applied_lsn:]:  # record n at n - 1
                if record["op"] != "snapshot":
                    apply_record(best.engine, record)
                best.applied_lsn = record["lsn"]
            self._crashed = self.primary_id
            self.primary_id = best.node_id
            self.inner = best.engine
            self.replicas.remove(best)
            self.promotions += 1
            post_digest = state_digest(self.inner)
            return {
                "group": self.name,
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
        fresh engine replays latest-snapshot + tail from the group WAL and
        re-enters as a replica at the current head.
        """
        with self._lock:
            if self._crashed is None:
                raise ValidationError(f"{self.name}: no crashed node to rejoin")
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
                "group": self.name,
                "node": replica.node_id,
                "caught_up_records": len(records),
                "lsn": head,
                "rejoined_digest": rebuilt_digest,
                "primary_digest": primary_digest,
                "match": rebuilt_digest == primary_digest,
            }

    # -- introspection ------------------------------------------------------

    def set_latency(self, latency: float) -> None:
        """Retune the simulated round trip on every node (a slow volume
        degrades the shard, not whichever engine happens to be primary)."""
        self.inner.set_latency(latency)
        for replica in self.replicas:
            replica.engine.set_latency(latency)

    def describe(self) -> Dict[str, Any]:
        """The primary's status with this group as its shard's ``replication``."""
        status = super().describe()
        head = self.wal.last_lsn
        status["shards"][0]["replication"] = {
            "primary": self.primary_id,
            "promotions": self.promotions,
            "crashed_node": self._crashed,
            "replicas": [
                {
                    "node": replica.node_id,
                    "applied_lsn": replica.applied_lsn,
                    "alive": replica.alive,
                    "caught_up": replica.applied_lsn == head,
                }
                for replica in self.replicas
            ],
        }
        return status


class ReplicatedEngine(ShardedEngine):
    """A sharded engine whose shards are replica groups."""

    def __init__(
        self,
        shards: int = 1,
        replicas: int = 1,
        engine_factory: Callable[[], StorageEngine] = InMemoryEngine,
        snapshot_every: int = 0,
        wal_dir: Optional[str] = None,
        telemetry=None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.groups = [
            ReplicaGroup(
                replicas=replicas,
                engine_factory=engine_factory,
                path=f"{wal_dir}/shard{index}.wal" if wal_dir else None,
                snapshot_every=snapshot_every,
                telemetry=telemetry,
                name=f"shard{index}",
            )
            for index in range(shards)
        ]
        super().__init__(self.groups)

    # -- failure handling (what the ShardCrash chaos fault drives) ----------

    def crash_primary(self, shard: int) -> Dict[str, object]:
        return self.groups[shard].crash_primary()

    def rejoin(self, shard: int) -> Dict[str, object]:
        return self.groups[shard].rejoin()
