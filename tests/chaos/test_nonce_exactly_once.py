"""The federation nonce ledger burns each nonce exactly once under threads.

The pipeline's per-user lock stripes do not serialize two spellings of
one account, so the same stolen assertion can reach
:meth:`NonceCache.consume` on many threads at once; exactly one of them
may win.
"""

import random
import sys
import threading

from repro.common.clock import VirtualClock
from repro.resolvers.federation import NonceCache

THREADS = 16
ROUNDS = 200


def test_concurrent_consume_is_exactly_once(seed):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    cache = NonceCache(clock)
    rng = random.Random(seed)
    nonces = [f"{rng.getrandbits(96):024x}" for _ in range(ROUNDS)]
    expires_at = clock.now() + 300.0
    barrier = threading.Barrier(THREADS)
    wins = [[False] * THREADS for _ in range(ROUNDS)]
    blocked_after = [0] * ROUNDS

    def worker(slot: int) -> None:
        for round_no, nonce in enumerate(nonces):
            barrier.wait(timeout=30.0)
            wins[round_no][slot] = cache.consume(nonce, expires_at)
            if barrier.wait(timeout=30.0) == 0:
                blocked_after[round_no] = cache.replays_blocked

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [sum(row) for row in wins] == [1] * ROUNDS
    assert blocked_after == [(THREADS - 1) * (n + 1) for n in range(ROUNDS)]
