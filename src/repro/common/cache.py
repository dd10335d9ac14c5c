"""The one bounded, keyed record of recent answers.

The RADIUS duplicate window, the resolver chain's lookup cache and the
storage read-through cache are one dict that forgets its oldest insertion
once full (a re-``put`` keeps its place).  An entry may carry an absolute
``expires_at``; from then on it is missing.
:data:`MISSING`, not ``None``, means "not held": ``None`` is a value (an
in-flight RADIUS claim, a negative resolver entry).  No lock: each owner
calls it under the lock it already holds.  A record that must never forget
a live entry (the federation nonce ledger) is a ledger, not a cache.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, Tuple

#: What :meth:`BoundedCache.get` returns for a key it does not hold.
MISSING: Any = object()


class BoundedCache:
    """An insertion-ordered dict of at most ``capacity`` entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[Hashable, Tuple[Any, float]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Held, expired or not; counts nothing."""
        return key in self._entries

    def get(self, key: Hashable, now: float = -math.inf) -> Any:
        """The value held for ``key`` at ``now``, or :data:`MISSING`."""
        entry = self._entries.get(key)
        if entry is not None:
            if now < entry[1]:
                self.hits += 1
                return entry[0]
            del self._entries[key]
        self.misses += 1
        return MISSING

    def put(self, key: Hashable, value: Any, expires_at: float = math.inf) -> Any:
        """Hold ``value``; returns the key evicted to make room, or MISSING."""
        entries = self._entries
        evicted = MISSING
        if key not in entries and len(entries) >= self.capacity:
            evicted = next(iter(entries))
            del entries[evicted]
        entries[key] = (value, expires_at)
        return evicted

    def pop(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def snapshot(self) -> Dict[str, object]:
        """The ``cache`` block every owner reports in ``status()``."""
        total = self.hits + self.misses
        ratio = round(self.hits / total, 4) if total else 0.0
        return {
            "entries": len(self._entries), "capacity": self.capacity,
            "hits": self.hits, "misses": self.misses, "hit_ratio": ratio,
        }
