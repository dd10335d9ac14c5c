"""The resolver chain's cache and counters hold under concurrent validates.

Every ``validate`` resolves its login name through the one
:class:`ResolverChain`, from as many threads as the RADIUS tier runs — so
an eviction race in the chain is a correct login refused ("internal
error").  A cache far smaller than the name pool keeps
lookup, expiry and eviction interleaving; no call may raise and no counter
update may be lost.
"""

import random
import sys
import threading

from repro.common.clock import VirtualClock
from repro.resolvers import ResolverChain
from repro.resolvers import chain as chain_module
from repro.resolvers.base import IdentityResolver, ResolvedIdentity

THREADS = 8
LOOKUPS = 4000
NAMES = 12


class CountingResolver(IdentityResolver):
    """Answers every name; counts its calls under its own lock."""

    def __init__(self) -> None:
        super().__init__("counting")
        self.calls = 0
        self._calls_lock = threading.Lock()

    def _lookup(self, username):
        with self._calls_lock:
            self.calls += 1
        return ResolvedIdentity(username, f"uid-{username}", resolver=self.name)


def test_concurrent_resolves_never_raise_and_count_exactly(seed, monkeypatch):
    monkeypatch.setattr(chain_module, "CACHE_CAPACITY", 2)
    chain = ResolverChain(clock=VirtualClock.at("2016-10-05T09:00:00"))
    resolver = chain.register(CountingResolver())
    errors = []
    snapshots = []

    def worker(slot: int) -> None:
        rng = random.Random(seed * 31 + slot)
        try:
            for n in range(LOOKUPS):
                name = f"u{rng.randrange(NAMES)}"
                assert chain.resolve(name).uid == f"uid-{name}"
                if n % 500 == 0:
                    snapshots.append(chain.snapshot()["cache"]["entries"])
        except BaseException as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert chain.lookups == THREADS * LOOKUPS
    assert chain.cache_hits + resolver.calls == chain.lookups
    assert chain.cache_hits > 0 and resolver.calls > NAMES
    assert max(snapshots) <= 2
