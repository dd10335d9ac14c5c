"""Striped per-user locking for the validate path.

The seed serialized concurrent validates behind the storage engine's
single lock — a server-wide critical section.  The pipeline instead
acquires one of N striped locks chosen by hashing the user id with the
same process-independent blake2b hash the storage tier uses for shard
placement, so:

* two validates for the *same* user always serialize (the failcount
  read-modify-write and SMS challenge lifecycle stay race-free), while
* validates for *different* users almost always proceed in parallel
  (collision probability 1/stripes).

The locks are reentrant: a stage that re-enters the pipeline for the
same user (not something any shipped stage does) would deadlock under a
plain mutex and merely nest under an RLock.
"""

from __future__ import annotations

import threading
from typing import Tuple

from repro.storage.sharding import stable_hash

#: Stripes per pipeline: enough that 4-16 worker threads practically
#: never collide on distinct users, small enough to allocate eagerly.
#: ``AuthPipeline`` reads it when it is built; benchmarks and tests
#: monkeypatch it (1 is the seed's single server-wide validate lock).
DEFAULT_STRIPES = 64


class StripedLockSet:
    """N reentrant locks addressed by key hash."""

    def __init__(self, stripes: int) -> None:
        if stripes < 1:
            raise ValueError(f"need at least one lock stripe, got {stripes}")
        self._locks: Tuple[threading.RLock, ...] = tuple(
            threading.RLock() for _ in range(stripes)
        )

    @property
    def stripes(self) -> int:
        return len(self._locks)

    def stripe_for(self, key: str) -> int:
        """The stripe index ``key`` maps to (stable across processes).  A
        key that is not a string — validate takes ids from outside — is
        placed by its ``repr``: it needs *a* lock, not a crash."""
        if not isinstance(key, str):
            key = repr(key)
        return stable_hash(key) % len(self._locks)

    def lock_for(self, key: str) -> threading.RLock:
        """The lock guarding ``key`` — use as a context manager."""
        return self._locks[self.stripe_for(key)]
