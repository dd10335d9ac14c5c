"""The time seam: one Clock protocol for wall and virtual time.

Every time-dependent component (TOTP windows, exemption expiry, SMS code
lifetimes, audit timestamps, RADIUS retransmit waits, storage round trips,
the rollout simulator) takes a :class:`Clock` rather than calling
``time.time()`` / ``time.sleep()`` directly.  The protocol has three
operations:

* :meth:`Clock.now` — the current POSIX timestamp;
* :meth:`Clock.sleep` — block until ``now() + seconds``.  On
  :class:`WallClock` this is a real ``time.sleep``; on
  :class:`VirtualClock` it advances virtual time instantly, which is what
  lets a million-user, multi-day rollout finish in minutes of wall time;
* :meth:`Clock.deadline` — a :class:`Deadline` handle for budgeted
  operations (the RADIUS client's per-call time budget), so callers never
  do their own ``now() + budget`` arithmetic.

Production deployments use :class:`WallClock`; tests and the
discrete-event simulation (:mod:`repro.simcore`) use :class:`VirtualClock`,
which only moves when told to.
"""

from __future__ import annotations

import math
import time as _time
from datetime import datetime, timezone
from typing import Optional


class Deadline:
    """A point in time an operation must not run past.

    Built by :meth:`Clock.deadline`; ``budget=None`` yields an unbounded
    deadline that never expires, so budgeted and unbudgeted code paths
    read identically.
    """

    __slots__ = ("_clock", "at")

    def __init__(self, clock: "Clock", at: float) -> None:
        self._clock = clock
        self.at = at

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.at)

    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded; never below zero)."""
        return max(0.0, self.at - self._clock.now())

    def expired(self) -> bool:
        return self._clock.now() >= self.at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(at={self.at!r}, remaining={self.remaining()!r})"


class Clock:
    """Interface: a source of POSIX timestamps (seconds, float)."""

    def now(self) -> float:
        """Return the current POSIX timestamp."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block until ``now() + seconds``.

        Wall clocks really sleep; virtual clocks advance instantly.
        """
        raise NotImplementedError

    def deadline(self, budget: Optional[float]) -> Deadline:
        """A :class:`Deadline` ``budget`` seconds out (None = unbounded)."""
        if budget is None:
            return Deadline(self, math.inf)
        if budget <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget}")
        return Deadline(self, self.now() + budget)

    def today(self) -> datetime:
        """Return the current instant as an aware UTC datetime."""
        return datetime.fromtimestamp(self.now(), tz=timezone.utc)


class WallClock(Clock):
    """Wall-clock time from the operating system."""

    def now(self) -> float:
        return _time.time()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            _time.sleep(seconds)


class VirtualClock(Clock):
    """A clock that advances only under test/simulation control.

    The clock is monotonic by construction: :meth:`advance` rejects negative
    deltas and :meth:`set` rejects moving backwards.  Monotonicity matters
    because the OTP server's replay protection ("the provided token code is
    nullified") assumes time never rewinds.

    :meth:`sleep` is :meth:`advance`: a component that waits under a
    virtual clock charges the wait to simulated time and returns
    immediately, which is the whole point of the virtual-time seam.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` and return the new timestamp."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative delta {seconds!r}")
        self._now += float(seconds)
        return self._now

    def set(self, timestamp: float) -> float:
        """Jump directly to ``timestamp`` (must not move backwards)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    @classmethod
    def at(cls, iso: str) -> "VirtualClock":
        """Build a clock positioned at an ISO-8601 instant (UTC assumed)."""
        dt = datetime.fromisoformat(iso)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return cls(dt.timestamp())


def parse_date(text: str) -> datetime:
    """Parse ``YYYY-MM-DD`` (or full ISO-8601) into an aware UTC datetime.

    Used by the exemption ACL parser and the countdown-mode deadline
    configuration, both of which the paper specifies as date-valued fields.
    """
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt
