"""PERF — the storage tier: undo-log transactions and shard scaling.

Three claims from the storage-engine extraction, each asserted:

* **Transactions are O(ops touched).**  The seed implementation deep-copied
  every table per transaction, so abort cost grew with the database.  The
  undo log records inverses instead; aborting a 10-write block must cost
  (nearly) the same over 50,000 rows as over 500.
* **Shards scale the threaded login workload.**  With per-shard lock
  striping and a simulated per-op backing-store round trip, four shards
  must deliver at least twice the single-shard login-validation throughput
  under four threads.
* **The ops are observable.**  ``python -m repro telemetry`` must surface
  the storage op/cache series alongside the auth-path metrics.
* **Durability is affordable and recovery is fast.**  The WAL's hot-path
  overhead and the replay cost of a 100k-operation log (full and
  snapshot+tail) are measured and exported to ``BENCH_storage.json``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchlib import emit_bench, percentile, slow_every_shard
from repro.common.clock import VirtualClock, WallClock
from repro.otpserver import OTPServer
from repro.storage import (
    InMemoryEngine,
    StorageConfig,
    TableSchema,
    WALEngine,
    build_engine,
    replay,
    state_digest,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Simulated backing-store round trip per engine op (seconds) — stands in
#: for the MariaDB network/disk hop so thread scaling measures contention,
#: not pure-Python dict speed.
SIMULATED_OP_LATENCY = 150e-6


class _Abort(Exception):
    pass


class TestUndoLogTransactionCost:
    @staticmethod
    def _abort_seconds(total_rows: int, writes: int = 10, rounds: int = 40) -> float:
        engine = InMemoryEngine()
        engine.create_table(
            "t", TableSchema(("k", "v"), "k", indexed=("v",))
        )
        for i in range(total_rows):
            engine.insert("t", {"k": i, "v": i % 7})
        # Warm the paths once, then time aborted transactions.
        for _ in range(3):
            try:
                with engine.transaction():
                    for i in range(writes):
                        engine.update("t", i, {"v": 99})
                    raise _Abort()
            except _Abort:
                pass
        start = time.perf_counter()
        for _ in range(rounds):
            try:
                with engine.transaction():
                    for i in range(writes):
                        engine.update("t", i, {"v": 99})
                    raise _Abort()
            except _Abort:
                pass
        return (time.perf_counter() - start) / rounds

    def test_abort_cost_independent_of_db_size(self):
        small = self._abort_seconds(total_rows=500)
        large = self._abort_seconds(total_rows=50_000)
        print(
            f"\n=== undo-log abort cost (10 writes) ===\n"
            f"    500 rows: {small * 1e6:9.1f} us\n"
            f"    50k rows: {large * 1e6:9.1f} us   (x{large / small:.2f})"
        )
        # Deepcopy snapshots would make the 100x-larger database ~100x more
        # expensive to abort; the undo log must stay within noise of flat.
        assert large < 10 * small, (
            f"abort cost grew with database size: {small * 1e6:.1f}us @500 rows "
            f"vs {large * 1e6:.1f}us @50k rows"
        )

    def test_commit_is_log_cleanup_only(self):
        engine = InMemoryEngine()
        engine.create_table("t", TableSchema(("k", "v"), "k"))
        for i in range(50_000):
            engine.insert("t", {"k": i, "v": 0})
        start = time.perf_counter()
        rounds = 40
        for _ in range(rounds):
            with engine.transaction():
                for i in range(10):
                    engine.update("t", i, {"v": 1})
        per_txn = (time.perf_counter() - start) / rounds
        # 10 dict updates plus log bookkeeping: well under a millisecond
        # even on slow CI hardware, and no O(row-count) term.
        assert per_txn < 5e-3, f"commit cost {per_txn * 1e6:.1f}us over 50k rows"


def _login_rig(shards: int, n_users: int = 32):
    """An OTP server on ``shards`` shards with static-token users enrolled."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    # Explicit WallClock for the storage stack: the per-op latency must
    # really sleep (releasing the GIL) so shard scaling measures actual
    # contention — charged to the server's virtual clock it would be free.
    server = OTPServer(
        clock=clock,
        rng=random.Random(1),
        storage=slow_every_shard(
            build_engine(StorageConfig(shards=shards), clock=WallClock()),
            SIMULATED_OP_LATENCY,
        ),
    )
    users = [f"user{i:03d}" for i in range(n_users)]
    for user in users:
        server.enroll_static(user, "424242")
    return server, users


def _threaded_throughput(server, users, n_threads: int = 4, per_thread: int = 150):
    """Logins/second with ``n_threads`` validating disjoint user sets."""
    chunks = [users[i::n_threads] for i in range(n_threads)]
    barrier = threading.Barrier(n_threads + 1)
    failures = []

    def worker(chunk):
        barrier.wait()
        for i in range(per_thread):
            result = server.validate(chunk[i % len(chunk)], "424242")
            if not result.ok:
                failures.append(result)

    threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} validations failed under threads"
    return (n_threads * per_thread) / elapsed


class TestShardedThroughput:
    def test_four_shards_double_threaded_login_throughput(self):
        server1, users1 = _login_rig(shards=1)
        server4, users4 = _login_rig(shards=4)
        tput1 = _threaded_throughput(server1, users1)
        tput4 = _threaded_throughput(server4, users4)
        speedup = tput4 / tput1
        print(
            f"\n=== threaded login validation (4 threads, "
            f"{SIMULATED_OP_LATENCY * 1e6:.0f}us simulated op latency) ===\n"
            f"    1 shard : {tput1:8.0f} logins/s\n"
            f"    4 shards: {tput4:8.0f} logins/s   (x{speedup:.2f})"
        )
        assert speedup >= 2.0, (
            f"sharding speedup only x{speedup:.2f} "
            f"({tput1:.0f} -> {tput4:.0f} logins/s)"
        )
        emit_bench(
            "storage",
            {
                "threaded": {
                    "single_shard_logins_per_sec": round(tput1, 1),
                    "four_shard_logins_per_sec": round(tput4, 1),
                    "speedup": round(speedup, 2),
                }
            },
        )

    def test_shards_hold_disjoint_row_sets(self):
        server, _ = _login_rig(shards=4)
        sizes = server.db.engine.shard_sizes("tokens")
        assert sum(sizes) == 32
        assert all(size > 0 for size in sizes), f"dead shard: {sizes}"


def _mutate(engine, ops: int) -> None:
    """A deterministic insert/update mix over a small key space."""
    for i in range(ops):
        pk = i % 1000
        if i < 1000:
            engine.insert("t", {"k": pk, "v": i, "blob": b"\x00" * 16})
        else:
            engine.update("t", pk, {"v": i})


def _fresh(durable: bool, snapshot_every: int = 0):
    inner = InMemoryEngine()
    engine = (
        WALEngine(inner, snapshot_every=snapshot_every) if durable else inner
    )
    engine.create_table(
        "t", TableSchema(("k", "v", "blob"), "k", indexed=("v",))
    )
    return engine


class TestWALOverhead:
    def test_wal_hot_path_overhead(self):
        """Per-op cost of logging: plain vs WAL-wrapped engine."""
        ops = 20_000
        samples = []

        def timed_run(durable: bool) -> float:
            engine = _fresh(durable)
            _mutate(engine, 2_000)  # warm-up
            probe = _fresh(durable)
            start = time.perf_counter()
            if durable:
                for i in range(ops):
                    op_start = time.perf_counter()
                    pk = i % 1000
                    if i < 1000:
                        probe.insert("t", {"k": pk, "v": i, "blob": b"\x00" * 16})
                    else:
                        probe.update("t", pk, {"v": i})
                    samples.append(time.perf_counter() - op_start)
            else:
                _mutate(probe, ops)
            return ops / (time.perf_counter() - start)

        plain = timed_run(durable=False)
        durable = timed_run(durable=True)
        overhead = plain / durable
        print(
            f"\n=== WAL hot-path overhead ({ops} ops) ===\n"
            f"    plain  : {plain:10.0f} ops/s\n"
            f"    durable: {durable:10.0f} ops/s   (x{overhead:.2f} slower)\n"
            f"    durable p50={percentile(samples, 50) * 1e6:.1f}us "
            f"p99={percentile(samples, 99) * 1e6:.1f}us"
        )
        # Logging is canonical-JSON rendering per op: a constant factor,
        # never a blow-up.  Generous bound for slow CI machines.
        assert overhead < 40, f"WAL made mutations x{overhead:.1f} slower"
        emit_bench(
            "storage",
            {
                "wal": {
                    "plain_ops_per_sec": round(plain, 1),
                    "durable_ops_per_sec": round(durable, 1),
                    "overhead_factor": round(overhead, 2),
                    "durable_p50_us": round(percentile(samples, 50) * 1e6, 1),
                    "durable_p99_us": round(percentile(samples, 99) * 1e6, 1),
                }
            },
        )


class TestRecoveryReplay:
    #: The documented recovery bar: a 100k-operation log must replay into
    #: a fresh engine in under this many wall seconds (CI hardware).
    FULL_REPLAY_BAR_SECONDS = 30.0

    def test_replay_seconds_vs_log_size(self):
        recovery = {}
        for ops in (10_000, 100_000):
            engine = _fresh(durable=True)
            _mutate(engine, ops)
            start = time.perf_counter()
            recovered = replay(engine.wal.read())
            elapsed = time.perf_counter() - start
            assert state_digest(recovered) == engine.state_digest()
            recovery[f"full_replay_{ops}_ops_seconds"] = round(elapsed, 3)
        # Snapshot + tail: recovery skips the bulk of the history.
        engine = _fresh(durable=True, snapshot_every=20_000)
        _mutate(engine, 100_000)
        tail_records = engine.wal.last_lsn - engine.wal.last_snapshot_lsn
        records = engine.wal.read()
        start = time.perf_counter()
        recovered = replay(records)
        tail_elapsed = time.perf_counter() - start
        assert state_digest(recovered) == engine.state_digest()
        recovery["snapshot_tail_100000_ops_seconds"] = round(tail_elapsed, 3)
        recovery["snapshot_tail_records_replayed"] = tail_records
        full = recovery["full_replay_100000_ops_seconds"]
        print(
            f"\n=== recovery replay ===\n"
            f"    10k ops full    : {recovery['full_replay_10000_ops_seconds']:7.3f} s\n"
            f"    100k ops full   : {full:7.3f} s\n"
            f"    100k snap+tail  : {tail_elapsed:7.3f} s "
            f"({tail_records} tail records)"
        )
        assert full < self.FULL_REPLAY_BAR_SECONDS, (
            f"100k-op replay took {full:.1f}s "
            f"(bar: {self.FULL_REPLAY_BAR_SECONDS}s)"
        )
        emit_bench("storage", {"recovery": recovery})


class TestStorageMetricsVisible:
    def test_cli_telemetry_includes_storage_series(self):
        """`python -m repro telemetry` shows the storage engine series."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "telemetry", "--shards", "2"],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "storage_op_seconds_count" in proc.stdout
        # Rows per shard are state, not events: scraped from status().
        assert 'repro_status{path="storage.shards.1.tables.tokens"}' in proc.stdout
        assert 'repro_status{path="storage.cache.hits"}' in proc.stdout
