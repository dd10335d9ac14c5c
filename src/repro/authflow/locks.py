"""Striped per-user locking for the validate path.

The seed serialized concurrent validates behind the storage engine's
single lock — a server-wide critical section.  The pipeline instead
acquires one of N striped locks chosen by the key's in-process ``hash()``, so:

* two validates for the *same* user always serialize (the failcount
  read-modify-write and SMS challenge lifecycle stay race-free), while
* validates for *different* users almost always proceed in parallel
  (collision probability 1/stripes).

A lock never leaves the process, so the per-process salt of ``hash()``
only changes which names share a stripe — contention, never an outcome.

The locks are reentrant: a stage that re-enters the pipeline for the
same user (not something any shipped stage does) would deadlock under a
plain mutex and merely nest under an RLock.
"""

from __future__ import annotations

import threading
from typing import Tuple

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
        self._n = stripes

    @property
    def stripes(self) -> int:
        return self._n

    def lock_for(self, key: str) -> threading.RLock:
        """The lock guarding ``key`` — use as a context manager.  A key that
        cannot be hashed — validate takes ids from outside — is placed by
        its ``repr``: it needs *a* lock, not a crash."""
        try:
            return self._locks[hash(key) % self._n]
        except TypeError:
            return self._locks[hash(repr(key)) % self._n]

    def stripe_for(self, key: str) -> int:
        """The index of :meth:`lock_for`'s lock in this process."""
        return self._locks.index(self.lock_for(key))
