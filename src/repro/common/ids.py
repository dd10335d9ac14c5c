"""Deterministic tagged identifier allocation.

The infrastructure crosses several databases that the paper says share "a
unique user ID ... common to both databases" (LDAP and LinOTP).  Components
also need ids for tokens, audit rows, RADIUS packets and pairing sessions.
We allocate them from per-tag counters so runs are reproducible and ids are
self-describing (``user-000123``, ``token-000042``).

Seeded octet strings — OTP seeds, nonces, key material, challenges, RADIUS
authenticators — are drawn one way as well: :func:`random_octets`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict


def random_octets(rng: random.Random, n: int) -> bytes:
    """``n`` random octets from ``rng``, in one draw.

    The bytes of ``n`` separate 8-bit draws, leaving ``rng`` where they would:
    an 8-bit draw is the top octet of one 32-bit Mersenne Twister word, and a
    ``32 * n``-bit draw is ``n`` such words, least significant first.
    """
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]


class IdAllocator:
    """Allocates ``<tag>-<zero-padded counter>`` identifiers."""

    def __init__(self, width: int = 6) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._width = width

    def next(self, tag: str) -> str:
        """Return the next identifier for ``tag`` (first is ``<tag>-000001``)."""
        self._counters[tag] += 1
        return f"{tag}-{self._counters[tag]:0{self._width}d}"

    def peek(self, tag: str) -> int:
        """Return how many ids have been allocated for ``tag`` so far."""
        return self._counters[tag]
