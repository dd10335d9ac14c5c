"""The federation nonce ledger burns each nonce exactly once under threads.

The pipeline's per-user lock stripes do not serialize two spellings of
one account, so the same stolen assertion can reach
:meth:`NonceCache.consume` on many threads at once; exactly one of them
may win.  Single-threaded, the ledger is checked against a reference model
over random schedules: it refuses exactly the live nonces and, after each
burn, holds nothing else.
"""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

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


#: One schedule step: burn nonce ``n`` with a lifetime, or move the clock.
burn = st.tuples(
    st.just("burn"),
    st.integers(0, 7),
    st.sampled_from([0.0, 1.0, 30.0, 300.0, 86400.0]),
)
advance = st.tuples(st.just("advance"), st.floats(0.0, 400.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.one_of(burn, advance), max_size=80))
def test_consume_agrees_with_a_reference_ledger(steps):
    """Random burns, re-burns and clock moves with mixed lifetimes:
    ``consume`` refuses exactly when the model holds the nonce live, and
    the ledger then holds the live nonces plus the one just burned."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    ledger = NonceCache(clock)
    model = {}
    replays = 0
    for step in steps:
        if step[0] == "advance":
            clock.advance(step[1])
            continue
        _, n, lifetime = step
        nonce, now = f"nonce-{n}", clock.now()
        live = model.get(nonce, float("-inf")) > now
        assert ledger.consume(nonce, now + lifetime) is (not live)
        if live:
            replays += 1
        else:
            model[nonce] = now + lifetime
        held = {key for key, exp in model.items() if exp > now} | {nonce}
        assert len(ledger) == len(held)
    assert ledger.replays_blocked == replays


def test_a_long_lived_nonce_does_not_pin_expired_ones():
    """Expiry order is not burn order: one day-long assertion burned first
    must not keep the short-lived ones behind it in memory."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    ledger = NonceCache(clock)
    assert ledger.consume("long", clock.now() + 86400.0)
    for n in range(1000):
        assert ledger.consume(f"short-{n}", clock.now() + 1.0)
    clock.advance(10.0)
    assert ledger.consume("fresh", clock.now() + 1.0)
    assert len(ledger) == 2
    assert not ledger.consume("long", clock.now() + 86400.0)
