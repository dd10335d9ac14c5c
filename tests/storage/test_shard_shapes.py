"""Every storage shape is built by one per-shard recipe and reached one way.

``build_engine`` makes each shard the same way (an in-memory node, under a
``WALEngine`` when durable, with that engine's own replicas) and puts a
``ShardedEngine`` over them only when there is more than one.  So every
shape answers ``describe()`` with the same keys, ``shards_of`` hands back
one entry per shard, and the chaos shard faults promote, rejoin and slow
down a one-shard stack through the same path as a sharded one.
"""

import pytest

from repro.chaos import ChaosEngine, FaultPlan, ShardCrash, SlowShard
from repro.common.clock import VirtualClock
from repro.storage import StorageConfig, TableSchema, build_engine, find_layer, shards_of
from tests.otpserver.test_status import assert_same_keys

SCHEMA = TableSchema(columns=("id", "name"), primary_key="id", unique=("name",))

SHAPES = [
    (shards, durability, replicas)
    for shards in (1, 2)
    for durability in (False, True)
    for replicas in (0, 1, 2)
]


def _shape_id(shape):
    shards, durability, replicas = shape
    return f"shards{shards}-{'wal' if durability else 'plain'}-replicas{replicas}"


def _engine(shards, durability, replicas):
    engine = build_engine(
        StorageConfig(shards=shards, durability=durability, replicas=replicas)
    )
    engine.create_table("t", SCHEMA)
    for n in range(12):
        engine.insert("t", {"id": n, "name": f"n{n}"})
    return engine


def _nodes(shard):
    """Every node of one durable shard: its primary, then its replicas."""
    return [shard.inner, *(replica.engine for replica in shard.replicas)]


@pytest.mark.parametrize("shards, durability, replicas", SHAPES, ids=map(_shape_id, SHAPES))
def test_every_shape_has_one_status_shape_and_its_shards(shards, durability, replicas):
    engine = _engine(shards, durability, replicas)
    status = engine.describe()
    assert_same_keys(status, _engine(2, True, 2).describe())
    assert len(shards_of(engine)) == shards == len(status["shards"])
    durable = durability or replicas > 0
    for shard, entry in zip(shards_of(engine), status["shards"]):
        log = find_layer(shard, "wal")
        assert (log is not None) == durable
        assert len(entry["replication"]["replicas"]) == replicas
        if log is not None:
            assert entry["wal"]["last_lsn"] == log.wal.last_lsn > 0


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("shards", [1, 2])
def test_shard_faults_take_one_path_on_every_replicated_stack(shards, replicas):
    engine = _engine(shards, True, replicas)
    target = shards - 1
    clock = VirtualClock(0.0)
    plan = FaultPlan(
        "p",
        "",
        (
            ShardCrash(start=10, duration=10, shard=target),
            SlowShard(start=30, duration=10, shard=target, latency=0.5),
        ),
    )
    chaos = ChaosEngine(plan, clock, seed=7, storage=engine)
    shard = shards_of(engine)[target]
    digest = shard.state_digest()

    clock.set(10)
    chaos.tick()
    assert (shard.promotions, shard.primary_id) == (1, 1)
    assert shard.state_digest() == digest
    (crash,) = [e for e in chaos.events if e["kind"] == "shard_crash"]
    assert crash["shard"] == target and crash["digest_match"] is True

    clock.set(20)
    chaos.tick()
    (rejoin,) = [e for e in chaos.events if e["kind"] == "shard_rejoin"]
    assert rejoin["node"] == 0 and rejoin["digest_match"] is True
    replication = engine.describe()["shards"][target]["replication"]
    assert replication["crashed_node"] is None
    assert len(replication["replicas"]) == replicas
    assert all(replica["caught_up"] for replica in replication["replicas"])

    def latencies():
        return [[node.latency for node in _nodes(each)] for each in shards_of(engine)]

    idle = latencies()
    clock.set(30)
    chaos.tick()
    assert latencies() == [
        [0.5 if index == target else 0.0 for _ in nodes]
        for index, nodes in enumerate(idle)
    ]
    clock.set(40)
    chaos.tick()
    assert latencies() == idle


@pytest.mark.parametrize(
    "fault",
    [ShardCrash(start=0, duration=10, shard=2), SlowShard(start=0, duration=10, shard=2)],
    ids=["shard-crash", "slow-shard"],
)
@pytest.mark.parametrize("shards", [1, 2])
def test_a_fault_at_a_shard_that_does_not_exist_raises(shards, fault):
    engine = _engine(shards, True, 1)
    chaos = ChaosEngine(FaultPlan("p", "", (fault,)), VirtualClock(0.0), seed=7, storage=engine)
    with pytest.raises(TypeError, match="shard 2"):
        chaos.tick()
