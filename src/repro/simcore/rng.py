"""Seeded per-actor randomness streams.

A simulation that shares one ``random.Random`` across actors is fragile:
inserting a single extra draw anywhere shifts every subsequent decision of
every actor, so two runs differing in one scheduled event diverge
everywhere.  The fix (the Hathor simulator's pattern) is independent
streams: each actor's generator is seeded by a stable hash of
``(root seed, actor key)``, so adding or removing an actor — or resuming a
run from the middle — never perturbs anyone else's draws.

:func:`derive_seed` is SHA-256 based (not Python's randomized ``hash``),
so streams replay across processes and machines.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple


def derive_seed(root: object, *parts: object) -> int:
    """A stable 64-bit seed from a root seed and actor key parts."""
    key = "|".join(str(p) for p in (root, *parts))
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class RngStreams:
    """A registry of named, independently seeded generators."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[Tuple[str, ...], random.Random] = {}

    def stream(self, *actor: object) -> random.Random:
        """The (cached) ``random.Random`` for one actor key."""
        key = tuple(str(p) for p in actor)
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = random.Random(
                derive_seed(self.root_seed, *key)
            )
        return rng

    def numpy_generator(self, *actor: object):
        """A fresh numpy ``Generator`` for one actor key.

        Not cached: vectorised consumers (the attack campaign's population
        draw) want a generator whose draw sequence is a pure function of
        the key, whatever else ran in this process.
        """
        import numpy as np

        return np.random.Generator(
            np.random.PCG64(derive_seed(self.root_seed, *actor))
        )

    def __len__(self) -> int:
        return len(self._streams)
