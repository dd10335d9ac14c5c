"""RFC 6238 time-based one-time passwords.

"A code is generated every 30 seconds using the combination of the current
time and a secret key" (paper, Section 3.3).  This module provides both
sides of that transaction:

* :class:`TOTPGenerator` — the device side: given a clock, produce the code
  currently showing on the fob / phone app.
* :class:`TOTPValidator` — the LinOTP side: accept a code if it matches any
  time step within the configured drift tolerance.  The paper's deployment
  tolerates 300 seconds of device clock drift; with a 30-second step that is
  ±10 steps around the server's own step.

Replay protection ("the provided token code is nullified") is enforced by
the validator remembering the highest step it has accepted per key and
refusing codes at or below it.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.clock import Clock, WallClock
from repro.crypto.hotp import hotp

#: The step length every device in the paper uses.
DEFAULT_STEP = 30
#: The deployment's drift tolerance in seconds (paper Section 3.3).
DEFAULT_DRIFT = 300

#: Canonical rejection reasons, shared with callers that label outcomes
#: (the OTP server counts replay-floor hits by matching REASON_REPLAY).
REASON_MALFORMED = "malformed code"
REASON_REPLAY = "code already used"
REASON_NO_MATCH = "no matching step in drift window"


def time_step(timestamp: float, step: int = DEFAULT_STEP, t0: int = 0) -> int:
    """Map a POSIX timestamp to its TOTP step counter (RFC 6238 ``T``)."""
    if step <= 0:
        raise ValueError(f"TOTP step must be positive, got {step}")
    return int((timestamp - t0) // step)


def totp_at(
    secret: bytes,
    timestamp: float,
    digits: int = 6,
    step: int = DEFAULT_STEP,
    t0: int = 0,
    algorithm: str = "sha1",
) -> str:
    """Compute the TOTP code valid at ``timestamp``."""
    return hotp(secret, time_step(timestamp, step, t0), digits=digits, algorithm=algorithm)


@dataclass
class TOTPGenerator:
    """The device-side view: what code is on the screen right now.

    The generator carries its own ``skew`` so tests (and the SMS-delay
    failure mode from Section 5) can model a phone whose clock has drifted
    relative to the LinOTP server.
    """

    secret: bytes
    clock: Clock = field(default_factory=WallClock)
    digits: int = 6
    step: int = DEFAULT_STEP
    skew: float = 0.0

    def current_code(self) -> str:
        """The code the device is displaying at this instant."""
        return totp_at(self.secret, self.clock.now() + self.skew, self.digits, self.step)

    def code_at(self, timestamp: float) -> str:
        """The code the device would display at an arbitrary instant."""
        return totp_at(self.secret, timestamp + self.skew, self.digits, self.step)

    def seconds_remaining(self) -> float:
        """Seconds until the displayed code rolls over."""
        now = self.clock.now() + self.skew
        return self.step - (now % self.step)


@dataclass
class ValidationOutcome:
    """Result of a validator check: success flag plus the matched offset.

    ``offset`` is the signed number of steps between the server's current
    step and the step that matched, useful for drift monitoring and for the
    resynchronization workflow admins run from the LinOTP UI.

    Shares the ``.ok``/``.reason`` accessor pair with
    :class:`repro.common.results.ValidateResult` so telemetry can label
    validation outcomes uniformly across layers.
    """

    ok: bool
    offset: Optional[int] = None
    reason: str = ""


class TOTPValidator:
    """Server-side TOTP validation with drift window and replay protection."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        digits: int = 6,
        step: int = DEFAULT_STEP,
        drift: int = DEFAULT_DRIFT,
    ) -> None:
        if drift < 0:
            raise ValueError(f"drift must be non-negative, got {drift}")
        self.clock = clock or WallClock()
        self.digits = digits
        self.step = step
        self.drift = drift
        # Highest accepted step per secret identity; keyed by an opaque id
        # the caller supplies (the token serial) so two tokens that happen to
        # share a secret in tests don't interfere.
        self._last_accepted: Dict[str, int] = {}
        # Learned per-device time offset (steps).  Resync writes it; each
        # successful validation refreshes it, so a slowly drifting fob keeps
        # working even once its total drift exceeds the window.
        self._offsets: Dict[str, int] = {}

    @property
    def window(self) -> int:
        """Drift tolerance expressed in steps on each side of "now"."""
        return self.drift // self.step

    def validate(self, key_id: str, secret: bytes, code: str) -> ValidationOutcome:
        """Check ``code`` against ``secret`` within the drift window.

        On success the matched step is recorded so the same code (or any
        earlier one) can never be accepted again for ``key_id`` — this is
        the "token code is nullified" behaviour from Section 3.2.
        """
        if len(code) != self.digits or not code.isdigit():
            return ValidationOutcome(False, reason=REASON_MALFORMED)
        center = time_step(self.clock.now(), self.step) + self._offsets.get(key_id, 0)
        floor = self._last_accepted.get(key_id, -1)
        # Search outward from the center so the common no-drift case matches
        # on the first probe.
        for distance in range(self.window + 1):
            for sign in ((0,) if distance == 0 else (1, -1)):
                step = center + sign * distance
                if step <= floor:
                    continue
                expected = hotp(secret, step, digits=self.digits)
                if hmac.compare_digest(expected, code):
                    self._last_accepted[key_id] = step
                    true_center = time_step(self.clock.now(), self.step)
                    self._offsets[key_id] = step - true_center
                    return ValidationOutcome(True, offset=step - true_center)
        if floor >= center - self.window:
            # The code may have been correct but already consumed.
            expected_consumed = any(
                hmac.compare_digest(hotp(secret, s, digits=self.digits), code)
                for s in range(max(0, center - self.window), floor + 1)
            )
            if expected_consumed:
                return ValidationOutcome(False, reason=REASON_REPLAY)
        return ValidationOutcome(False, reason=REASON_NO_MATCH)

    def resync(
        self, key_id: str, secret: bytes, code1: str, code2: str, search: int = 1000
    ) -> ValidationOutcome:
        """Resynchronize a badly drifted token from two consecutive codes.

        Mirrors the LinOTP admin "re-synchronize tokens" operation: scan a
        wide window for a step where ``code1`` and ``code2`` appear in
        consecutive steps, then anchor the replay floor there.
        """
        center = time_step(self.clock.now(), self.step)
        for distance in range(search + 1):
            for sign in ((0,) if distance == 0 else (1, -1)):
                step = center + sign * distance
                if step < 0:
                    continue
                if hotp(secret, step, digits=self.digits) == code1 and hotp(
                    secret, step + 1, digits=self.digits
                ) == code2:
                    self._last_accepted[key_id] = step + 1
                    # Remember the device's drift so the next validate()
                    # centers its window on the device's clock, not ours.
                    self._offsets[key_id] = (step + 1) - center
                    return ValidationOutcome(True, offset=step - center)
        return ValidationOutcome(False, reason="resync failed: no consecutive match")

    def forget(self, key_id: str) -> None:
        """Drop replay/drift state for a key (used when a token is unpaired)."""
        self._last_accepted.pop(key_id, None)
        self._offsets.pop(key_id, None)
