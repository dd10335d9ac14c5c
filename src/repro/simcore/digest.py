"""Canonical event logs and determinism digests.

Every deterministic harness in the repo (the chaos runner, the attack
campaigns) proves determinism the same way: append structured events to a
log, render each as canonical JSON (sorted keys, no whitespace), and
SHA-256 the joined lines.  Two runs with the same seed must produce
byte-identical digests — the cheap witness that nothing nondeterministic
(thread interleaving, dict order, wall time) leaked into the simulation.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from repro.common.clock import Clock


#: One event as byte-stable JSON: one encoder's bound method (``json.dumps``
#: with keywords builds a fresh ``JSONEncoder`` per call — per WAL record).
canonical_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class EventLog:
    """An append-only structured log with a SHA-256 determinism digest."""

    def __init__(self, clock: Optional[Clock] = None, epoch: float = 0.0) -> None:
        self._clock = clock
        self.epoch = epoch
        self.events: List[dict] = []

    def append(self, kind: str, **fields: object) -> dict:
        """Record one event; ``t`` is stamped from the clock when bound."""
        event: dict = {"kind": kind}
        if self._clock is not None:
            event["t"] = round(self._clock.now() - self.epoch, 3)
        event.update(fields)
        self.events.append(event)
        return event

    def lines(self) -> List[str]:
        """Canonical JSON, one event per line — byte-stable across reruns."""
        return [canonical_line(event) for event in self.events]

    def digest(self) -> str:
        """SHA-256 over the canonical rendering of every event."""
        joined = "\n".join(self.lines()).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()

    def __len__(self) -> int:
        return len(self.events)
