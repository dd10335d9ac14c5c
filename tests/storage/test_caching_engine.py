"""Read-through cache and the instrumentation wrapper."""

import random
import sys
import threading

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ssh import SSHClient
from repro.storage import (
    CachingEngine,
    InMemoryEngine,
    InstrumentedEngine,
    StorageConfig,
    TableSchema,
    build_engine,
    find_layer,
)
from repro.telemetry import Registry


class CountingEngine(InMemoryEngine):
    """Counts reads that actually reach the backing engine."""

    def __init__(self):
        super().__init__()
        self.backend_reads = 0

    def get(self, table, pk):
        self.backend_reads += 1
        return super().get(table, pk)

    def get_by_unique(self, table, column, value):
        self.backend_reads += 1
        return super().get_by_unique(table, column, value)


def _rig(capacity=8):
    inner = CountingEngine()
    cached = CachingEngine(inner, capacity=capacity)
    cached.create_table(
        "tokens",
        TableSchema(("serial", "user_id", "n"), "serial", unique=("user_id",)),
    )
    for i in range(4):
        cached.insert("tokens", {"serial": f"S{i}", "user_id": f"u{i}", "n": i})
    return inner, cached


class TestReadThrough:
    def test_second_get_is_a_hit(self):
        inner, cached = _rig()
        assert cached.get("tokens", "S1") == cached.get("tokens", "S1")
        assert inner.backend_reads == 1

    def test_unique_lookup_cached(self):
        inner, cached = _rig()
        cached.get_by_unique("tokens", "user_id", "u2")
        cached.get_by_unique("tokens", "user_id", "u2")
        assert inner.backend_reads == 1

    def test_cached_rows_are_copies(self):
        _, cached = _rig()
        row = cached.get("tokens", "S1")
        row["n"] = 999
        assert cached.get("tokens", "S1")["n"] == 1

    def test_misses_are_not_cached(self):
        inner, cached = _rig()
        for _ in range(2):
            with pytest.raises(NotFoundError):
                cached.get("tokens", "S99")
        assert inner.backend_reads == 2

    def test_lru_eviction(self):
        inner, cached = _rig(capacity=2)
        cached.get("tokens", "S0")
        cached.get("tokens", "S1")
        cached.get("tokens", "S2")  # evicts S0
        cached.get("tokens", "S0")
        assert inner.backend_reads == 4
        info = cached.cache_info()
        assert info["entries"] == 2
        assert info["capacity"] == 2
        assert info["hits"] == 0
        assert info["misses"] == 4
        assert info["hit_ratio"] == 0.0

    def test_hit_miss_counters(self):
        _, cached = _rig()
        cached.get("tokens", "S1")
        cached.get("tokens", "S1")
        cached.get("tokens", "S1")
        info = cached.cache_info()
        assert (info["misses"], info["hits"], info["entries"]) == (1, 2, 1)


class TestVersioning:
    def test_hit_ratio_reported(self):
        _, cached = _rig()
        cached.get("tokens", "S1")
        cached.get("tokens", "S1")
        cached.get("tokens", "S1")
        cached.get("tokens", "S2")
        info = cached.cache_info()
        assert info["hits"] == 2 and info["misses"] == 2
        assert info["hit_ratio"] == 0.5


class TestWriteInvalidation:
    def test_update_invalidates_pk_entry(self):
        inner, cached = _rig()
        cached.get("tokens", "S1")
        cached.update("tokens", "S1", {"n": 100})
        assert cached.get("tokens", "S1")["n"] == 100

    def test_update_invalidates_unique_entries(self):
        inner, cached = _rig()
        cached.get_by_unique("tokens", "user_id", "u1")
        cached.update("tokens", "S1", {"n": 100})
        assert cached.get_by_unique("tokens", "user_id", "u1")["n"] == 100

    def test_delete_invalidates(self):
        _, cached = _rig()
        cached.get("tokens", "S1")
        cached.delete("tokens", "S1")
        with pytest.raises(NotFoundError):
            cached.get("tokens", "S1")

    def test_aborted_transaction_clears_cache(self):
        _, cached = _rig()
        with pytest.raises(RuntimeError):
            with cached.transaction():
                cached.update("tokens", "S1", {"n": 100})
                cached.get("tokens", "S1")  # reads the uncommitted value
                raise RuntimeError("boom")
        assert cached.get("tokens", "S1")["n"] == 1  # rolled-back truth


class PausingEngine(InMemoryEngine):
    """Its first ``get`` reads the row, then waits to be released."""

    def __init__(self):
        super().__init__()
        self.read = threading.Event()
        self.release = threading.Event()
        self.paused = False

    def get(self, table, pk):
        row = super().get(table, pk)
        if not self.paused:
            self.paused = True
            self.read.set()
            assert self.release.wait(timeout=10)
        return row


class TestReadThroughRace:
    def test_a_fetch_overtaken_by_a_write_does_not_fill(self):
        """A write and its invalidation that land between a miss's fetch and
        its fill must not leave the fetched (old) row cached."""
        inner = PausingEngine()
        inner.create_table("t", TableSchema(("k", "v"), "k"))
        inner.insert("t", {"k": 1, "v": "old"})
        cache = CachingEngine(inner, capacity=8)
        read = []
        reader = threading.Thread(target=lambda: read.append(cache.get("t", 1)))
        reader.start()
        assert inner.read.wait(timeout=10)
        cache.update("t", 1, {"v": "new"})
        inner.release.set()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert read == [{"k": 1, "v": "old"}]  # it read before the write
        assert inner.get("t", 1)["v"] == "new"
        assert cache.get("t", 1)["v"] == "new"

    def test_threads_reading_and_writing_leave_no_stale_entry(self):
        inner = InMemoryEngine()
        inner.create_table("t", TableSchema(("k", "v"), "k"))
        for k in range(4):
            inner.insert("t", {"k": k, "v": ""})
        cache = CachingEngine(inner, capacity=8)

        def work(name):
            for i in range(300):
                k = i % 4
                cache.get("t", k)
                cache.update("t", k, {"v": f"{name}{i}"})

        threads = [threading.Thread(target=work, args=(n,)) for n in "abcd"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert cache.get("t", k) == inner.get("t", k)


class TestAnOpenBlock:
    def test_another_thread_never_reads_a_blocks_uncommitted_row(self):
        """A read inside an open block fills nothing: another thread's get of
        the row the block wrote and read back misses, waits for the block's
        shard, and reads what the abort left."""
        cached = build_engine(StorageConfig(shards=4, cache_capacity=64))
        cached.create_table("t", TableSchema(("k", "v"), "k"))
        cached.insert("t", {"k": 1, "v": 1})
        in_block = threading.Event()
        seen = []

        def other_thread():
            assert in_block.wait(timeout=10)
            seen.append(cached.get("t", 1)["v"])

        reader = threading.Thread(target=other_thread)
        reader.start()
        with pytest.raises(RuntimeError):
            with cached.transaction():
                cached.update("t", 1, {"v": 99})
                assert cached.get("t", 1)["v"] == 99
                in_block.set()
                reader.join(timeout=0.2)  # a cache hit returns at once
                raise RuntimeError("abort")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert seen == [1]
        assert cached.get("t", 1)["v"] == 1

    def test_a_committed_blocks_rows_fill_again_after_it(self):
        inner = CountingEngine()
        cached = CachingEngine(inner, capacity=8)
        cached.create_table("t", TableSchema(("k", "v"), "k"))
        cached.insert("t", {"k": 1, "v": 1})
        with cached.transaction():
            cached.get("t", 1)
            with cached.transaction():
                cached.get("t", 1)
            cached.get("t", 1)
        assert inner.backend_reads == 3  # nothing filled inside the block
        cached.get("t", 1)
        cached.get("t", 1)
        assert inner.backend_reads == 4  # outside it, one miss fills


class TestInstrumentedEngine:
    def test_op_series_recorded(self):
        registry = Registry()
        engine = InstrumentedEngine(InMemoryEngine(), telemetry=registry)
        engine.create_table("t", TableSchema(("k",), "k"))
        engine.insert("t", {"k": 1})
        engine.get("t", 1)
        engine.select("t")
        ops = registry.histogram("storage_op_seconds")
        assert ops.count(op="insert", table="t") == 1
        assert ops.count(op="get", table="t") == 1
        assert ops.count(op="select", table="t") == 1

    def test_transaction_outcomes_counted(self):
        registry = Registry()
        engine = InstrumentedEngine(InMemoryEngine(), telemetry=registry)
        engine.create_table("t", TableSchema(("k",), "k"))
        with engine.transaction():
            engine.insert("t", {"k": 1})
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.insert("t", {"k": 2})
                raise RuntimeError("boom")
        txn = registry.counter("storage_transactions_total")
        assert txn.value(outcome="commit") == 1
        assert txn.value(outcome="abort") == 1
        assert not engine.exists("t", 2)


class _CountingClock(VirtualClock):
    """Counts the reads made of it."""

    reads = 0

    def now(self):
        self.reads += 1
        return super().now()


def _one_login(center, clock):
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    code = TOTPGenerator(secret=secret, clock=clock).current_code
    result, _ = SSHClient(source_ip="198.51.100.7").connect(
        system.login_node(), "alice", password="pw", token=code
    )
    assert result.success


class TestBuildEngine:
    def test_telemetry_on_is_instrumented_memory(self):
        engine = build_engine(telemetry=Registry())
        assert isinstance(engine, InstrumentedEngine)
        assert isinstance(engine.inner, InMemoryEngine)
        center = MFACenter(clock=VirtualClock.at("2016-10-05T09:00:00"), telemetry=True)
        assert isinstance(center.otp.db.engine, InstrumentedEngine)

    def test_telemetry_off_has_no_timing_layer(self):
        """Off means absent: nothing reads a clock on storage's behalf."""
        storage_clock = _CountingClock(1475658000.0)
        engine = build_engine(clock=storage_clock)
        assert isinstance(engine, InMemoryEngine)
        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(7), storage=engine)
        assert not center.telemetry.enabled
        _one_login(center, clock)
        assert storage_clock.reads == 0
        # The default deployment is built the same way, and its status view
        # renders the one storage shape with no wrapper to pass through.
        default = MFACenter(clock=clock, rng=random.Random(7))
        assert isinstance(default.otp.db.engine, InMemoryEngine)
        _one_login(default, clock)
        section = default.otp.status("storage")
        assert section["tables"]["tokens"] == 1
        assert set(section) == set(center.otp.status("storage"))

    def test_full_stack_composes(self):
        engine = build_engine(StorageConfig(shards=3, cache_capacity=16))
        engine.create_table("t", TableSchema(("k",), "k"))
        for i in range(9):
            engine.insert("t", {"k": i})
        # Each extra lives on its own layer, reached with find_layer; the
        # outermost engine forwards neither.
        assert sum(find_layer(engine, "shard_sizes").shard_sizes("t")) == 9
        assert find_layer(engine, "cache_info").cache_info()["capacity"] == 16
        assert not hasattr(engine, "shard_sizes")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StorageConfig(shards=0)
        with pytest.raises(ValueError):
            StorageConfig(replicas=-1)
