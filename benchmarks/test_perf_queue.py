"""PERF — the priority ingestion queue: overhead and shed throughput.

Two claims, asserted:

* **Queued admission is nearly free on the deployment-shaped path.**
  Routing a validation through the :class:`~repro.ingest.IngestQueue`
  (submit, priority push/pop, ticket resolve) must cost at most 10% of
  direct-call throughput against a backend with a simulated per-op
  storage round trip — the same MariaDB stand-in
  ``benchmarks/test_perf_pipeline.py`` uses, because a queue tax only
  matters relative to the real work it fronts.
* **Shedding under overload is cheap.**  With the queue full of batch
  work, refusing another batch submission (``queue full``) is a
  constant-time door turn-away that never touches the backend — asserted
  as shed throughput strictly above serviced throughput on the same rig.
  A ``critical`` arrival at the full queue still evicts a batch item and
  is served.

``BENCH_queue.json`` carries the numbers for the CI regression gate
(``benchmarks/check_regression.py`` compares every ``*ops_per_sec``).
"""

from __future__ import annotations

import random
import time

from benchlib import emit_bench

from repro.common.clock import VirtualClock, WallClock
from repro.ingest import IngestConfig, IngestQueue, PriorityClass
from repro.otpserver import OTPServer
from repro.storage import StorageConfig, build_engine

#: Simulated backing-store round trip per engine op (seconds) — keep in
#: line with test_perf_pipeline's MariaDB stand-in rationale.
SIMULATED_OP_LATENCY = 100e-6

N_OPS = 1200
N_USERS = 16
REPEATS = 3


def _server(op_latency: float = SIMULATED_OP_LATENCY) -> OTPServer:
    clock = VirtualClock.at("2016-10-05T09:00:00")
    # The storage stack sleeps on a real clock so every path pays the
    # same simulated round trips (see test_perf_pipeline.py).
    storage = build_engine(
        StorageConfig(shards=2, latency=op_latency), clock=WallClock()
    )
    server = OTPServer(clock=clock, rng=random.Random(1), storage=storage)
    for i in range(N_USERS):
        server.enroll_static(f"user{i:02d}", "424242")
    return server


def _best_throughput(run, n_ops: int) -> float:
    """Ops/second, best of REPEATS — the least-noise estimate in CI."""
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = max(best, n_ops / elapsed)
    return best


def test_queued_overhead_within_ten_percent():
    server = _server()
    users = [f"user{i:02d}" for i in range(N_USERS)]

    def direct():
        for i in range(N_OPS):
            assert server.validate(users[i % N_USERS], "424242").ok

    # Live-mode queue, inline drive: the per-datagram path a RADIUS server
    # takes through QueuedBackend.validate — submit, pump one, resolve.
    queue = IngestQueue(server.validate, clock=WallClock())

    def queued():
        for i in range(N_OPS):
            assert queue.submit((users[i % N_USERS], "424242")).result().ok

    direct()  # warm both paths before timing
    queued()
    direct_ops = _best_throughput(direct, N_OPS)
    queued_ops = _best_throughput(queued, N_OPS)
    overhead = 1.0 - queued_ops / direct_ops

    # The queue machinery alone (null runner): the absolute per-op cost
    # the 10% budget is spent on.  Informational, not regression-gated.
    bare = IngestQueue(lambda user, code: True, clock=WallClock())

    def bare_run():
        for i in range(N_OPS):
            bare.submit((users[i % N_USERS], "424242")).result()

    bare_run()
    bare_ops = _best_throughput(bare_run, N_OPS)

    print(f"\ndirect:     {direct_ops:10.0f} ops/s")
    print(f"queued:     {queued_ops:10.0f} ops/s  (overhead {overhead:+.1%})")
    print(f"queue-only: {bare_ops:10.0f} ops/s ({1e6 / bare_ops:.1f} us/op)")
    emit_bench(
        "queue",
        {
            "direct_ops_per_sec": round(direct_ops),
            "queued_ops_per_sec": round(queued_ops),
            "queued_overhead_fraction": round(overhead, 4),
            "queue_only_us_per_op": round(1e6 / bare_ops, 2),
        },
    )
    assert queued_ops >= 0.9 * direct_ops, (
        f"queued path lost {overhead:.1%} vs direct (budget: 10%)"
    )


def test_shed_under_overload_is_cheap():
    server = _server()
    users = [f"user{i:02d}" for i in range(N_USERS)]
    clock = VirtualClock.at("2016-10-05T09:00:00")

    serviced_queue = IngestQueue(server.validate, clock=WallClock())

    def serviced():
        for i in range(N_OPS):
            assert serviced_queue.submit(
                (users[i % N_USERS], "424242")
            ).result().ok

    def fill():
        queue = IngestQueue(server.validate, IngestConfig(max_depth=64), clock=clock)
        for i in range(64):
            queue.submit_item((users[i % N_USERS], "424242"), PriorityClass.BATCH)
        return queue

    def overloaded(queue):
        # Nobody waits on the queued batch tickets, so the queue stays
        # full: every further batch item is shed at the door without
        # touching the backend.
        for i in range(N_OPS):
            result = queue.submit_item(
                (users[i % N_USERS], "424242"), PriorityClass.BATCH
            ).result()
            assert result.reason == "shed: queue full (batch rejected)"

    def critical_lands(queue):
        # Critical work still lands: it evicts one batch item and is served.
        assert queue.submit_item(
            (users[0], "424242"), PriorityClass.CRITICAL
        ).result().ok
        assert queue.snapshot()["classes"]["batch"]["shed"] == N_OPS + 1

    serviced()  # warm
    full = fill()
    overloaded(full)
    critical_lands(full)
    serviced_ops = _best_throughput(serviced, N_OPS)
    full = fill()
    shed_ops = _best_throughput(lambda: overloaded(full), N_OPS)

    print(f"\nserviced:   {serviced_ops:10.0f} ops/s")
    print(f"overloaded: {shed_ops:10.0f} decisions/s")
    emit_bench(
        "queue",
        {
            "shed_ops_per_sec": round(shed_ops),
        },
    )
    assert shed_ops >= serviced_ops, (
        "shedding must be cheaper than doing the work it refuses"
    )
