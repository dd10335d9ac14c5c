"""Failover primitives shared by every client of a replicated service.

Two pieces, used together by the RADIUS client (servers) and the
identity-resolver chain (resolver back ends), and by the chaos engine for
its seeds — which is why they live below all three:

**Retransmit backoff with seeded jitter.**  A client waits between
retransmits to the same server so a congested or recovering server is not
hammered at line rate.  The delay schedule is exponential with a cap,
plus multiplicative jitter so a fleet of login nodes does not retry in
lockstep.  Jitter is drawn from a seeded generator keyed on ``(seed,
attempt)``: the schedule is a *pure function* of its inputs, which is
what lets the chaos invariant suite assert that two runs with the same
seed replay byte-identically.  Monotonicity is guaranteed by
construction: the constants keep ``BACKOFF_MULTIPLIER >= 1 +
BACKOFF_JITTER``, so even a maximal jitter draw on attempt ``n`` cannot
exceed a minimal draw on attempt ``n + 1`` (both pre-cap), and capping a
non-decreasing sequence keeps it non-decreasing.

**Per-server health scoring and circuit breaking.**  The paper's client
"communicate[s] with RADIUS servers in a round-robin fashion to provide
load balancing and resiliency" — but blind round-robin keeps burning
timeouts on a server that has been dead for an hour.  Every response or
timeout updates an EWMA health score and a consecutive-failure counter
per server, and a circuit breaker ejects servers that keep failing:

* ``CLOSED``    — healthy; the server takes its full share of traffic.
* ``OPEN``      — ejected after ``FAILURE_THRESHOLD`` consecutive
  timeouts; skipped entirely while the probe timer runs.
* ``HALF_OPEN`` — the probe state: once ``PROBE_INTERVAL`` seconds have
  passed, the next authenticate() spends a single attempt on the server;
  success re-admits it (CLOSED), another timeout re-opens the circuit.

Scores, states and a per-server transition count are kept on
:class:`ServerHealth` and read through :meth:`HealthTracker.snapshot` —
``OTPServer.status()`` shows which servers each client has given up on.
"""

from __future__ import annotations

import random
import threading
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

#: The retransmit delay curve: the first retransmit waits ``BACKOFF_BASE``
#: seconds, each later one ``BACKOFF_MULTIPLIER`` times longer, never more
#: than ``BACKOFF_CAP``, inflated by up to ``BACKOFF_JITTER`` of itself.
BACKOFF_BASE = 0.25
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP = 5.0
BACKOFF_JITTER = 0.5

#: Consecutive failures before a circuit opens.
FAILURE_THRESHOLD = 3
#: Seconds an open circuit waits before its first probe; every failed probe
#: multiplies the wait by ``PROBE_BACKOFF`` up to ``PROBE_INTERVAL_MAX``, so
#: a server that stays dead costs one timeout ladder ever more rarely.
PROBE_INTERVAL = 30.0
PROBE_BACKOFF = 2.0
PROBE_INTERVAL_MAX = 240.0
#: EWMA weight of a subject's history against its newest outcome.
HEALTH_DECAY = 0.7


def stable_seed(*parts: object) -> int:
    """A process-independent integer seed from arbitrary key parts.

    ``hash()`` is randomized per interpreter (PYTHONHASHSEED), so schedules
    keyed on it would not replay across runs; CRC32 over the rendered key
    is stable everywhere.
    """
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


class BackoffSchedule:
    """The per-server delay schedule: ``delay(n)`` is the wait before the
    ``n``-th retransmit (n >= 1; the first attempt never waits)."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def delay(self, attempt: int) -> float:
        """Deterministic delay before retransmit ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        raw = BACKOFF_BASE * (BACKOFF_MULTIPLIER ** (attempt - 1))
        unit = random.Random((self.seed << 20) ^ attempt).random()
        return min(BACKOFF_CAP, raw * (1.0 + BACKOFF_JITTER * unit))

    def delays(self, count: int) -> List[float]:
        """The first ``count`` delays, for inspection and property tests."""
        return [self.delay(n) for n in range(1, count + 1)]


class CircuitState(str, Enum):
    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"


@dataclass
class ServerHealth:
    """Everything the client remembers about one server."""

    address: str
    score: float = 1.0  # EWMA of outcomes: 1.0 all-good, 0.0 all-dead
    consecutive_failures: int = 0
    state: CircuitState = CircuitState.CLOSED
    opened_at: float = 0.0
    #: Failed half-open trials since the last success, counted only while
    #: they still lengthen the probe wait.
    probe_failures: int = 0
    successes: int = 0
    failures: int = 0
    transitions: int = 0  # circuit state changes, any direction


class HealthTracker:
    """Health scores and circuit state for one client's server list.

    The tracker is subject-agnostic: the RADIUS client tracks servers and
    the identity-resolver chain reuses the same machinery for resolver
    back ends — the EWMA/circuit semantics are identical either way.
    Every validate thread reports outcomes here, so one lock guards the
    read-modify-write of a :class:`ServerHealth`; the plain queries read
    single attributes and stay lock-free.
    """

    def __init__(self, servers: List[str]) -> None:
        self._lock = threading.Lock()
        self._health: Dict[str, ServerHealth] = {
            s: ServerHealth(address=s) for s in servers
        }

    def add(self, server: str) -> None:
        """Start tracking a subject registered after construction."""
        with self._lock:
            self._health.setdefault(server, ServerHealth(address=server))

    # -- queries -----------------------------------------------------------

    def health(self, server: str) -> ServerHealth:
        return self._health[server]

    def state(self, server: str) -> CircuitState:
        return self._health[server].state

    def probe_due(self, server: str, now: float) -> bool:
        health = self._health[server]
        if health.state is CircuitState.CLOSED:
            return False
        interval = min(
            PROBE_INTERVAL * PROBE_BACKOFF**health.probe_failures,
            PROBE_INTERVAL_MAX,
        )
        return now - health.opened_at >= interval

    # -- transitions -------------------------------------------------------

    def _transition(self, health: ServerHealth, state: CircuitState, now: float) -> None:
        """Caller holds the lock."""
        if health.state is state:
            return
        health.transitions += 1
        health.state = state
        if state is not CircuitState.CLOSED:
            health.opened_at = now

    def begin_probe(self, server: str, now: float) -> None:
        """An open circuit's probe timer fired: the next attempt is a trial."""
        with self._lock:
            self._transition(self._health[server], CircuitState.HALF_OPEN, now)

    def on_success(self, server: str, now: float) -> None:
        with self._lock:
            health = self._health[server]
            health.successes += 1
            health.consecutive_failures = 0
            health.probe_failures = 0
            health.score = HEALTH_DECAY * health.score + (1 - HEALTH_DECAY)
            self._transition(health, CircuitState.CLOSED, now)

    def on_failure(self, server: str, now: float) -> None:
        with self._lock:
            health = self._health[server]
            health.failures += 1
            health.consecutive_failures += 1
            health.score = HEALTH_DECAY * health.score
            if health.state is CircuitState.HALF_OPEN:
                # The probe itself failed: straight back to OPEN with a fresh
                # timer, and the next probe waits exponentially longer --
                # until the wait reaches its cap.  Counting on past the cap
                # would overflow the power after 1,024 failed probes.
                if (
                    PROBE_INTERVAL * PROBE_BACKOFF**health.probe_failures
                    < PROBE_INTERVAL_MAX
                ):
                    health.probe_failures += 1
                self._transition(health, CircuitState.OPEN, now)
                health.opened_at = now
            elif (
                health.state is CircuitState.CLOSED
                and health.consecutive_failures >= FAILURE_THRESHOLD
            ):
                self._transition(health, CircuitState.OPEN, now)

    # -- operator view -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-subject health as plain scalars, one consistent reading."""
        with self._lock:
            return {
                address: {
                    "state": health.state.value,
                    "score": round(health.score, 6),
                    "successes": health.successes,
                    "failures": health.failures,
                    "consecutive_failures": health.consecutive_failures,
                    "transitions": health.transitions,
                }
                for address, health in self._health.items()
            }
