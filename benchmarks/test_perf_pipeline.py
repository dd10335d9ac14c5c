"""PERF — the staged validate pipeline: per-user striped locks.

The seed ``OTPServer`` wrapped every ``validate()`` in one server-wide
critical section, so concurrent logins by *different* users serialized even
when the storage tier underneath was sharded.  The authflow pipeline
replaces that with per-user striped locks (``authflow.locks.DEFAULT_STRIPES``).
Two claims, asserted:

* **Striped locks scale threaded multi-user validation.**  With a simulated
  per-op storage round trip, the default 64-stripe configuration must
  deliver at least twice the threaded throughput of one stripe (the
  seed's single-lock behaviour: the constant monkeypatched to 1 for
  exactly this comparison).
* **The resolver chain is ~free for repeat users.**  Routing every login
  through the identity-resolver chain's warm TTL cache must cost at most
  5% of direct-lookup throughput on the same rig.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Optional

from benchlib import emit_bench, slow_every_shard

from repro.authflow import locks
from repro.common.clock import VirtualClock, WallClock
from repro.otpserver import OTPServer
from repro.resolvers import IdentityResolver, ResolvedIdentity, split_realm
from repro.storage import StorageConfig, build_engine

#: Simulated backing-store round trip per engine op (seconds) — the MariaDB
#: stand-in, so thread scaling measures lock contention, not dict speed.
SIMULATED_OP_LATENCY = 150e-6


def _pipeline_rig(n_users: int = 32):
    """An OTP server on 4 storage shards with ``locks.DEFAULT_STRIPES``
    validate locks."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    # The storage stack gets an explicit WallClock: its per-op latency must
    # really sleep (releasing the GIL) so thread scaling measures actual
    # lock contention — on the server's virtual clock the round trip would
    # be free and the comparison meaningless.
    storage = slow_every_shard(
        build_engine(StorageConfig(shards=4), clock=WallClock()), SIMULATED_OP_LATENCY
    )
    server = OTPServer(clock=clock, rng=random.Random(1), storage=storage)
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


class TestStripedLockThroughput:
    def test_striped_locks_double_threaded_validate_throughput(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(locks, "DEFAULT_STRIPES", 1)  # the seed's one lock
            single, users1 = _pipeline_rig()
        striped, users64 = _pipeline_rig()
        assert (single.pipeline.locks.stripes, striped.pipeline.locks.stripes) == (1, 64)
        tput_single = _threaded_throughput(single, users1)
        tput_striped = _threaded_throughput(striped, users64)
        speedup = tput_striped / tput_single
        print(
            f"\n=== threaded validate (4 threads, 4 shards, "
            f"{SIMULATED_OP_LATENCY * 1e6:.0f}us simulated op latency) ===\n"
            f"    1 stripe  (seed lock): {tput_single:8.0f} logins/s\n"
            f"    64 stripes           : {tput_striped:8.0f} logins/s"
            f"   (x{speedup:.2f})"
        )
        emit_bench(
            "pipeline",
            {
                "threaded": {
                    "users": len(users64),
                    "threads": 4,
                    "single_stripe_ops_per_sec": round(tput_single, 1),
                    "striped_ops_per_sec": round(tput_striped, 1),
                    "speedup": round(speedup, 2),
                }
            },
        )
        assert speedup >= 2.0, (
            f"striped-lock speedup only x{speedup:.2f} "
            f"({tput_single:.0f} -> {tput_striped:.0f} logins/s)"
        )


class _RigResolver(IdentityResolver):
    """Resolves the rig's users, whose uid is their login name."""

    name = "rig"

    def __init__(self, users) -> None:
        super().__init__()
        self._users = frozenset(users)

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        local, realm = split_realm(username)
        if local not in self._users:
            return None
        return ResolvedIdentity(
            username=username, uid=local, realm=realm, resolver=self.name
        )


class TestResolverChainOverhead:
    """The ISSUE's warm-cache gate: once the chain's TTL cache holds the
    population, repeat-user resolution must cost <= 5% of direct lookup."""

    ROUNDS = 12

    def _loop_throughput(self, server, users) -> float:
        start = time.perf_counter()
        total = 0
        for _ in range(self.ROUNDS):
            for user in users:
                assert server.validate(user, "424242").ok
                total += 1
        return total / (time.perf_counter() - start)

    def test_warm_chain_within_5pct_of_direct_lookup(self):
        from repro.resolvers import ResolverChain

        direct, users = _pipeline_rig()
        chained, _ = _pipeline_rig()
        chain = ResolverChain(clock=chained.clock)
        chain.register(_RigResolver(users))
        chained.attach_resolvers(chain)

        # Warm both rigs (JIT-free Python, but storage caches settle) and
        # fill the chain's positive cache before the measured passes.
        for user in users:
            assert direct.validate(user, "424242").ok
            assert chained.validate(user, "424242").ok

        tput_direct = self._loop_throughput(direct, users)
        tput_chained = self._loop_throughput(chained, users)
        overhead = max(0.0, 1.0 - tput_chained / tput_direct)
        snap = chain.snapshot()
        print(
            f"\n=== resolver chain overhead ({len(users)} users x "
            f"{self.ROUNDS} warm rounds) ===\n"
            f"    direct lookup : {tput_direct:8.0f} logins/s\n"
            f"    chained (warm): {tput_chained:8.0f} logins/s"
            f"   (+{overhead * 100:.1f}% overhead, "
            f"{snap['cache']['hits']} cache hits)"
        )
        emit_bench(
            "pipeline",
            {
                "resolver": {
                    "users": len(users),
                    "rounds": self.ROUNDS,
                    "direct_ops_per_sec": round(tput_direct, 1),
                    "chained_warm_ops_per_sec": round(tput_chained, 1),
                    "overhead_pct": round(overhead * 100, 2),
                    "cache_hits": snap["cache"]["hits"],
                }
            },
        )
        assert snap["cache"]["hits"] >= len(users) * self.ROUNDS
        assert overhead <= 0.05, (
            f"warm resolver chain costs {overhead * 100:.1f}% "
            f"({tput_direct:.0f} -> {tput_chained:.0f} logins/s; gate is 5%)"
        )
