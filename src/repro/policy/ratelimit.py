"""Per-source token-bucket admission control.

The paper's deployment sits behind campus firewalls, but the ROADMAP's
north star — heavy traffic from millions of users — needs the validate
path to shed abusive sources before they reach the storage tier.  A
token bucket per source address gives exactly that: sustained traffic is
admitted at ``rate`` requests/second with bursts up to ``burst``, and
anything beyond is refused without touching a token row (so a
credential-stuffing run cannot drive the 20-strike lockout for users it
is guessing against faster than the bucket refills).

Buckets are refilled lazily from the injected :class:`Clock`, so the
limiter is fully deterministic under :class:`VirtualClock` and costs
one dict probe plus arithmetic per admission check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.clock import Clock, WallClock


@dataclass(frozen=True)
class RateLimitConfig:
    """Shape of every per-source bucket."""

    rate: float = 50.0  # sustained admissions per second
    burst: float = 100.0  # bucket capacity (max short-term burst)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be at least 1, got {self.burst}")


class TokenBucketLimiter:
    """One lazily-refilled token bucket per source address."""

    def __init__(
        self,
        config: Optional[RateLimitConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config or RateLimitConfig()
        #: True when the caller injected a clock; a limiter left on the
        #: implicit wall clock gets rebound by any PolicyEngine that
        #: adopts it, so engine and limiter can never time-travel apart.
        self.clock_injected = clock is not None
        self._clock = clock or WallClock()
        # source -> (tokens, last refill timestamp)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._lock = threading.Lock()
        self.throttled_total = 0

    def bind_clock(self, clock: Clock) -> None:
        """Adopt ``clock`` as the refill time source.

        Only meaningful before traffic flows: buckets already refilled
        against the old clock keep their ``last`` timestamps, so rebinding
        across epochs (wall time → a virtual 2016 epoch) should happen at
        construction/wiring time, which is when
        :class:`~repro.policy.PolicyEngine` calls this.
        """
        with self._lock:
            self._clock = clock
            self.clock_injected = True

    def _refilled(self, source: str, now: float) -> float:
        tokens, last = self._buckets.get(source, (self.config.burst, now))
        if now > last:
            tokens = min(self.config.burst, tokens + (now - last) * self.config.rate)
        return tokens

    def allow(self, source: str, cost: float = 1.0, now: Optional[float] = None) -> bool:
        """Admit one request from ``source``, draining ``cost`` tokens.

        Refusals do not drain the bucket: a throttled source recovers at
        the refill rate, not slower the harder it hammers.  ``now`` lets a
        caller that already read its clock (the policy engine's
        ``evaluate(..., now=)`` path) keep refill accounting on that same
        timestamp instead of a second — possibly different — clock read.
        """
        if now is None:
            now = self._clock.now()
        with self._lock:
            tokens = self._refilled(source, now)
            if tokens < cost:
                self._buckets[source] = (tokens, now)
                self.throttled_total += 1
                return False
            self._buckets[source] = (tokens - cost, now)
            return True

    def tokens_available(self, source: str, now: Optional[float] = None) -> float:
        """Current bucket level for ``source`` (full for unseen sources)."""
        with self._lock:
            return self._refilled(source, self._clock.now() if now is None else now)

    def snapshot(self) -> dict:
        """Operator view: configuration plus aggregate counters."""
        with self._lock:
            return {
                "rate": self.config.rate,
                "burst": self.config.burst,
                "sources_tracked": len(self._buckets),
                "throttled_total": self.throttled_total,
            }
