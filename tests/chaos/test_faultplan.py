"""The FaultPlan DSL and the engine's application of each fault kind."""

import json
import random

import pytest

from repro.chaos import (
    ChaosEngine,
    ClockSkew,
    FaultPlan,
    LatencyFault,
    LossBurst,
    Partition,
    ServerFlap,
    ShardCrash,
    SlowShard,
    SMSBrownout,
    shipped_plans,
)
from repro.common.clock import VirtualClock
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.sms_gateway import SMSGateway
from repro.radius.transport import UDPFabric
from repro.storage import StorageConfig, TableSchema, build_engine, find_layer, shards_of
from repro.storage.memory import InMemoryEngine
from repro.storage.sharding import ShardedEngine
from repro.telemetry import Registry


class TestFaultValidation:
    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            LossBurst(start=-1, duration=10)
        with pytest.raises(ValueError):
            LossBurst(start=0, duration=0)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            LossBurst(start=0, duration=10, loss_rate=0.0)
        with pytest.raises(ValueError):
            LossBurst(start=0, duration=10, loss_rate=1.5)

    def test_partition_needs_targets(self):
        with pytest.raises(ValueError):
            Partition(start=0, duration=10)

    def test_flap_needs_sane_duty_cycle(self):
        with pytest.raises(ValueError):
            ServerFlap(start=0, duration=10, target="a", period=10, downtime=20)
        with pytest.raises(ValueError):
            ServerFlap(start=0, duration=10, period=10, downtime=5)  # no target

    def test_zero_skew_rejected(self):
        with pytest.raises(ValueError):
            ClockSkew(start=0, duration=10, skew=0.0)

    def test_window_half_open(self):
        fault = LatencyFault(start=10, duration=5, delay=0.1)
        assert not fault.active_at(9.999)
        assert fault.active_at(10)
        assert fault.active_at(14.999)
        assert not fault.active_at(15)  # [start, end)

    def test_flap_duty_cycle(self):
        flap = ServerFlap(start=0, duration=100, target="a", period=20, downtime=5)
        assert flap.down_at(0)
        assert flap.down_at(4.9)
        assert not flap.down_at(5)
        assert flap.down_at(20)
        assert not flap.down_at(101)  # window closed


class TestPlan:
    def test_active_and_horizon(self):
        plan = FaultPlan(
            "p",
            "test",
            (
                LossBurst(start=0, duration=10),
                Partition(start=20, duration=10, targets=("a",)),
            ),
        )
        assert [f.kind for f in plan.active(5)] == ["loss_burst"]
        assert plan.active(15) == []
        assert plan.horizon == 30

    def test_shipped_plans_keep_one_server_healthy(self):
        # Every shipped plan must leave at least one default-farm server
        # free of deterministic blocking at every instant, or the
        # availability invariant would be vacuous.
        farm = [f"10.0.0.{10 + i}:1812" for i in range(3)]
        for plan in shipped_plans().values():
            clock = VirtualClock(0.0)
            engine = ChaosEngine(plan, clock, seed=1)
            t = 0.0
            while t <= plan.horizon:
                clock.set(t)
                assert any(not engine.impaired(s) for s in farm), (
                    f"{plan.name} blocks the whole farm at t={t}"
                )
                t += 7.5

    def test_plan_floor_validated(self):
        with pytest.raises(ValueError):
            FaultPlan("p", "test", availability_floor=1.5)


class TestEngineDatagrams:
    def test_partition_vetoes_matching_traffic(self):
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (Partition(start=0, duration=100, targets=("10.0.0.10",)),)
        )
        engine = ChaosEngine(plan, clock, seed=3)
        assert engine.on_datagram("10.0.0.10:1812", "10.3.1.5") == "partition"
        assert engine.on_datagram("10.0.0.11:1812", "10.3.1.5") is None
        # Source-side match partitions a client subnet too.
        plan2 = FaultPlan(
            "p2", "", (Partition(start=0, duration=100, targets=("10.3.",)),)
        )
        engine2 = ChaosEngine(plan2, VirtualClock(0.0), seed=3)
        assert engine2.on_datagram("10.0.0.10:1812", "10.3.1.5") == "partition"

    def test_flap_drops_only_in_downtime(self):
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p",
            "",
            (
                ServerFlap(
                    start=0, duration=100, target="a", period=20, downtime=10
                ),
            ),
        )
        engine = ChaosEngine(plan, clock, seed=4)
        assert engine.on_datagram("a", "") == "flap"
        clock.set(15)  # up phase
        assert engine.on_datagram("a", "") is None
        clock.set(150)  # window over
        assert engine.on_datagram("a", "") is None

    def test_loss_burst_is_seeded_and_independent(self):
        plan = FaultPlan("p", "", (LossBurst(start=0, duration=100, loss_rate=0.5),))

        def outcomes(seed):
            engine = ChaosEngine(plan, VirtualClock(0.0), seed=seed)
            return [engine.on_datagram("a", "") for _ in range(50)]

        assert outcomes(9) == outcomes(9)  # same seed, same drops
        assert outcomes(9) != outcomes(10)
        dropped = sum(1 for o in outcomes(9) if o == "loss_burst")
        assert 10 <= dropped <= 40  # ~50% of 50

    def test_latency_charges_the_clock(self):
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (LatencyFault(start=0, duration=100, delay=0.4, target="a"),)
        )
        engine = ChaosEngine(plan, clock, seed=5)
        assert engine.on_datagram("a", "") is None  # delivered, but late
        assert clock.now() == pytest.approx(0.4)
        assert engine.on_datagram("b", "") is None  # non-matching: free
        assert clock.now() == pytest.approx(0.4)

    def test_fabric_integration_counts_chaos_drops(self):
        fabric = UDPFabric(rng=random.Random(1))
        fabric.register("a", lambda d, s: b"ok")
        clock = VirtualClock(0.0)
        plan = FaultPlan("p", "", (Partition(start=0, duration=10, targets=("a",)),))
        engine = ChaosEngine(plan, clock, seed=6, fabric=fabric)
        assert fabric.send_request("a", b"x") is None
        clock.set(20)
        assert fabric.send_request("a", b"x") == b"ok"
        # Counted once where it happened, logged once with its reason.
        assert (fabric.stats.sent, fabric.stats.dropped, fabric.stats.delivered) == (2, 1, 1)
        assert [event["kind"] for event in engine.events] == ["partition_drop"]

    def test_record_touches_no_registry(self):
        """The event log is the count: the engine takes no registry, so the
        runner's ``attempt`` rows are events and nothing else."""
        from repro.telemetry import Registry

        plan, clock = FaultPlan("p", "", ()), VirtualClock(0.0)
        with pytest.raises(TypeError):
            ChaosEngine(plan, clock, seed=6, telemetry=Registry())
        engine = ChaosEngine(plan, clock, seed=6)
        engine.record("attempt", user="alice", ok=True)
        assert [event["kind"] for event in engine.events] == ["attempt"]
        assert not hasattr(engine, "telemetry")


def _nodes(shard):
    """One shard's in-memory nodes: the shard itself, or the primary under
    its WAL followed by any replicas."""
    if not hasattr(shard, "inner"):
        return [shard]
    return [shard.inner, *(replica.engine for replica in shard.replicas)]


class TestStatefulFaults:
    def test_slow_shard_applied_and_reverted(self):
        sharded = ShardedEngine([InMemoryEngine(), InMemoryEngine()])
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (SlowShard(start=10, duration=10, shard=1, latency=0.5),)
        )
        engine = ChaosEngine(plan, clock, seed=7, storage=sharded)
        engine.tick()
        assert sharded.shards[1].latency == 0.0
        clock.set(10)
        engine.tick()
        assert sharded.shards[1].latency == 0.5
        assert sharded.shards[0].latency == 0.0
        clock.set(25)
        engine.tick()
        assert sharded.shards[1].latency == 0.0

    def test_slow_shard_on_unsharded_stack(self):
        engine_mem = InMemoryEngine()
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (SlowShard(start=0, duration=10, shard=0, latency=0.3),)
        )
        chaos = ChaosEngine(plan, clock, seed=8, storage=engine_mem)
        chaos.tick()
        assert engine_mem.latency == 0.3
        # A shard index that does not exist must fail loudly.
        plan2 = FaultPlan(
            "p2", "", (SlowShard(start=0, duration=10, shard=3, latency=0.3),)
        )
        chaos2 = ChaosEngine(plan2, VirtualClock(0.0), seed=8, storage=InMemoryEngine())
        with pytest.raises(TypeError):
            chaos2.tick()

    @pytest.mark.parametrize(
        "config, telemetry",
        [
            (StorageConfig(shards=2), False),
            (StorageConfig(shards=2, durability=True), False),
            (StorageConfig(shards=2, durability=True, cache_capacity=8), True),
            (StorageConfig(durability=True), False),
            (StorageConfig(shards=2, replicas=1), False),
        ],
        ids=["sharded", "sharded-wal", "sharded-wal-cache-telemetry", "wal", "replicated"],
    )
    def test_slow_shard_reaches_every_node_of_its_shard(self, config, telemetry):
        engine = build_engine(config, telemetry=Registry() if telemetry else None)
        shards = [find_layer(shard, "set_latency") for shard in shards_of(engine)]
        target = len(shards) - 1  # shard 1, or shard 0 when unsharded
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (SlowShard(start=10, duration=10, shard=target, latency=0.5),)
        )
        chaos = ChaosEngine(plan, clock, seed=9, storage=engine)

        def latencies():
            return [[node.latency for node in _nodes(shard)] for shard in shards]

        idle = latencies()
        clock.set(10)
        chaos.tick()
        assert latencies() == [
            [0.5 if index == target else 0.0 for _ in nodes]
            for index, nodes in enumerate(idle)
        ]
        clock.set(25)
        chaos.tick()
        assert latencies() == idle

    def test_shard_crash_promotes_then_rejoins(self):
        replicated = build_engine(StorageConfig(shards=2, replicas=2))
        replicated.create_table(
            "t", TableSchema(("id", "v"), "id")
        )
        for i in range(10):
            replicated.insert("t", {"id": i, "v": i})
        clock = VirtualClock(0.0)
        plan = FaultPlan(
            "p", "", (ShardCrash(start=10, duration=10, shard=0),)
        )
        engine = ChaosEngine(plan, clock, seed=7, storage=replicated)
        clock.set(10)
        engine.tick()
        group = shards_of(replicated)[0]
        assert group.promotions == 1
        crash_events = [e for e in engine.events if e["kind"] == "shard_crash"]
        assert crash_events and crash_events[0]["digest_match"] is True
        clock.set(25)
        engine.tick()
        rejoin_events = [e for e in engine.events if e["kind"] == "shard_rejoin"]
        assert rejoin_events and rejoin_events[0]["digest_match"] is True
        assert all(
            replica["caught_up"]
            for shard in replicated.describe()["shards"]
            for replica in shard["replication"]["replicas"]
        )

    def test_shard_crash_needs_replicated_storage(self):
        clock = VirtualClock(0.0)
        plan = FaultPlan("p", "", (ShardCrash(start=0, duration=10, shard=0),))
        chaos = ChaosEngine(plan, clock, seed=8, storage=InMemoryEngine())
        with pytest.raises(TypeError):
            chaos.tick()
        plan2 = FaultPlan("p2", "", (ShardCrash(start=0, duration=10),))
        with pytest.raises(TypeError):
            ChaosEngine(plan2, VirtualClock(0.0), seed=8).tick()

    def test_shard_crash_validation(self):
        with pytest.raises(ValueError):
            ShardCrash(start=0, duration=10, shard=-1)
        assert ShardCrash(start=0, duration=10).kind == "shard_crash"

    def test_clock_skew_applied_per_user(self):
        clock = VirtualClock(0.0)
        devices = {
            "u1": TOTPGenerator(secret=b"s1", clock=clock),
            "u2": TOTPGenerator(secret=b"s2", clock=clock),
        }
        plan = FaultPlan(
            "p", "", (ClockSkew(start=0, duration=10, skew=75.0, user="u2"),)
        )
        engine = ChaosEngine(plan, clock, seed=9, devices=devices)
        engine.tick()
        assert devices["u1"].skew == 0.0
        assert devices["u2"].skew == 75.0
        clock.set(20)
        engine.tick()
        assert devices["u2"].skew == 0.0

    def test_sms_brownout_stalls_the_carrier(self):
        clock = VirtualClock(0.0)
        gateway = SMSGateway(clock, rng=random.Random(11))
        plan = FaultPlan(
            "p",
            "",
            (
                SMSBrownout(
                    start=0,
                    duration=100,
                    stall_probability=1.0,
                    stall_delay=600.0,
                ),
            ),
        )
        engine = ChaosEngine(plan, clock, seed=12, sms_gateway=gateway)
        stalled = gateway.send("+15125550100", "code 111111")
        assert stalled.deliver_at - stalled.sent_at >= 600.0
        assert stalled.attempts == 2  # the carrier retried
        clock.set(200)  # window over: normal delivery again
        prompt = gateway.send("+15125550100", "code 222222")
        assert prompt.deliver_at - prompt.sent_at < 10.0
        assert any(e["kind"] == "sms_brownout" for e in engine.events)

    def test_detach_restores_everything(self):
        clock = VirtualClock(0.0)
        fabric = UDPFabric(rng=random.Random(13))
        gateway = SMSGateway(clock, rng=random.Random(14))
        mem = InMemoryEngine()
        plan = FaultPlan(
            "p",
            "",
            (
                Partition(start=0, duration=100, targets=("a",)),
                SlowShard(start=0, duration=100, shard=0, latency=0.2),
            ),
        )
        engine = ChaosEngine(
            plan, clock, seed=15, fabric=fabric, sms_gateway=gateway, storage=mem
        )
        engine.tick()
        assert mem.latency == 0.2
        engine.detach()
        assert fabric.chaos is None
        assert gateway.carrier_override is None
        assert mem.latency == 0.0


class TestEventLog:
    def test_lines_are_canonical_json(self):
        clock = VirtualClock(0.0)
        plan = FaultPlan("p", "", (Partition(start=0, duration=10, targets=("a",)),))
        engine = ChaosEngine(plan, clock, seed=16)
        engine.on_datagram("a", "src")
        engine.record("attempt", index=0, ok=True)
        lines = engine.event_log_lines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line
        assert json.loads(lines[0])["kind"] == "partition_drop"
