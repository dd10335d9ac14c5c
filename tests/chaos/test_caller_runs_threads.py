"""Concurrent synchronous validates on a deployment nobody called
``queue.start()`` on: every caller drains for itself, none is stranded.

``MFACenter(ingest=True)`` fronts the back end with the ingestion queue
and starts no worker threads, so ``radius_backend.validate`` from many
threads is caller-runs on every one of them at once.
"""

import random
import sys
import threading

from repro.core import MFACenter
from repro.storage import StorageConfig

THREADS = 8
ROUNDS = 200


def test_concurrent_validates_all_finish(seed):
    center = MFACenter(
        rng=random.Random(seed),
        ingest=True,
        storage=StorageConfig(shards=4, latency=150e-6),
    )
    codes = {}
    for n in range(THREADS):
        center.create_user(f"user{n}", password="pw")
        codes[f"user{n}"] = center.pair_training(f"user{n}")
    results = [[] for _ in range(THREADS)]

    def worker(slot: int) -> None:
        user = f"user{slot}"
        for _ in range(ROUNDS):
            results[slot].append(center.radius_backend.validate(user, codes[user]))

    threads = [
        threading.Thread(target=worker, args=(n,), daemon=True) for n in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0 / THREADS)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(r.ok for row in results for r in row)
    assert center.ingest_queue.depth() == 0
    assert center.ingest_queue.snapshot()["completed_total"] == THREADS * ROUNDS
