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

The search itself is the pure :func:`verify_totp`: one :func:`hotp` probe
of the center step, then, only on a miss, the rest of the window and the
consumed steps in one :func:`~repro.crypto.hotp.hotps` pass under a
:class:`~repro.crypto.mac.PreparedKey`.  :func:`resync_step` scans its wide
window the same way, ring by ring outward.  :class:`TOTPValidator` holds
only the per-key floor and learned offset around them.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import and_, eq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.clock import Clock, WallClock
from repro.crypto.hotp import hotp, hotps
from repro.crypto.mac import PreparedKey

#: The step length every device in the paper uses.
DEFAULT_STEP = 30
#: The deployment's drift tolerance in seconds (paper Section 3.3).
DEFAULT_DRIFT = 300

#: Canonical rejection reasons, shared with callers that label outcomes
#: (the OTP server counts replay-floor hits by matching REASON_REPLAY).
REASON_MALFORMED = "malformed code"
REASON_REPLAY = "code already used"
REASON_NO_MATCH = "no matching step in drift window"

#: What a code may hold: ``str.isdigit`` passes ``"١٢٣٤٥٦"`` too, which
#: ``hmac.compare_digest`` refuses as non-ASCII; stripping these from a
#: code leaves nothing in one call.
_ASCII_DIGITS = "0123456789"


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


def verify_totp(
    secret: bytes, code: str, center: int, floor: int, window: int, digits: int = 6
) -> Tuple[Optional[int], str]:
    """Find the step ``code`` was shown at, within ``window`` steps of ``center``.

    Returns ``(step, "")`` for the first step above ``floor`` (the highest
    step already accepted) that matches, searching outward: center, +1, -1,
    +2, -2, ...  Otherwise ``(None, reason)``: :data:`REASON_REPLAY` when the
    code matches a consumed step from the window's low edge up to ``floor``,
    else :data:`REASON_NO_MATCH`, or :data:`REASON_MALFORMED` for a code that
    is not ``digits`` ASCII digits.

    The center is one :func:`hotp` call, so the common no-drift code
    matches on the first probe; a miss MACs the rest of the window and the
    consumed steps in one :func:`hotps` pass.  Every candidate is compared in
    constant time.
    """
    if len(code) != digits or code.strip(_ASCII_DIGITS):
        return None, REASON_MALFORMED
    if center > floor and hmac.compare_digest(hotp(secret, center, digits), code):
        return center, ""
    fresh = [s for d in range(1, window + 1) for s in (center + d, center - d) if s > floor]
    steps = fresh + list(range(max(0, center - window), floor + 1))
    codes = hotps(PreparedKey(secret), steps, digits)
    matches = list(map(hmac.compare_digest, codes, repeat(code)))
    if True not in matches:
        return None, REASON_NO_MATCH
    first = matches.index(True)
    return (steps[first], "") if first < len(fresh) else (None, REASON_REPLAY)


def resync_step(
    secret: bytes, code1: str, code2: str, center: int, search: int, digits: int = 6
) -> Optional[int]:
    """The step nearest ``center`` that shows ``code1`` and then ``code2``.

    Distances up to ``search`` are tried outward, ``+d`` before ``-d``, and
    negative steps never match.  The center pair is probed with
    :func:`hotp`; the rest is scanned in rings of doubling width, each one
    :func:`hotps` pass, stopping at the first ring that holds the pair.
    Codes compare with ``==``: they come unchecked from the admin API, and
    ``hmac.compare_digest`` raises on non-ASCII text.
    """
    if (
        center >= 0
        and hotp(secret, center, digits) == code1
        and hotp(secret, center + 1, digits) == code2
    ):
        return center
    key = PreparedKey(secret)
    near, far = 0, 1
    while near < search:
        far = min(far, search)
        # Steps center-far .. center-near-1 and center+near+1 .. center+far,
        # each side with the code of the step after its last; none below 0.
        back = range(max(0, center - far), center - near + 1)
        fore = range(max(0, center + near + 1), center + far + 2)
        codes = hotps(key, [*back, *fore], digits)
        split = len(back)
        behind = _pairs(back, codes[:split], code1, code2)
        ahead = _pairs(fore, codes[split:], code1, code2)
        if ahead and (not behind or ahead[0] - center <= center - behind[-1]):
            return ahead[0]
        if behind:
            return behind[-1]
        near, far = far, 2 * far
    return None


def _pairs(steps: range, codes: Sequence[str], code1: str, code2: str) -> List[int]:
    """The ``steps`` (ascending) showing ``code1`` whose next step shows ``code2``."""
    firsts = map(eq, codes, repeat(code1))
    seconds = map(eq, codes[1:], repeat(code2))
    return list(compress(steps, map(and_, firsts, seconds)))


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
        if step <= 0:
            raise ValueError(f"TOTP step must be positive, got {step}")
        self.clock = clock or WallClock()
        self.digits = digits
        self.step = step
        self.drift = drift
        #: Drift tolerance expressed in steps on each side of "now".
        self.window = drift // step
        # Highest accepted step per secret identity; keyed by an opaque id
        # the caller supplies (the token serial) so two tokens that happen to
        # share a secret in tests don't interfere.
        self._last_accepted: Dict[str, int] = {}
        # Learned per-device time offset (steps).  Resync writes it; each
        # successful validation refreshes it, so a slowly drifting fob keeps
        # working even once its total drift exceeds the window.
        self._offsets: Dict[str, int] = {}

    def validate(
        self, key_id: str, secret: bytes, code: str, at: Optional[float] = None
    ) -> ValidationOutcome:
        """Check ``code`` against ``secret`` within the drift window.

        The window is centered on the step of ``at`` (``None``: the clock is
        read once, now; :func:`time_step`, inline) plus the key's learned
        offset, so the offset learned is measured from the same step.  On
        success the matched step is recorded so the same code (or any earlier
        one) can never be accepted again for ``key_id`` — this is the "token
        code is nullified" behaviour from Section 3.2.
        """
        now = int((self.clock.now() if at is None else at) // self.step)
        center = now + self._offsets.get(key_id, 0)
        floor = self._last_accepted.get(key_id, -1)
        step, reason = verify_totp(secret, code, center, floor, self.window, self.digits)
        if step is None:
            return ValidationOutcome(False, reason=reason)
        self._last_accepted[key_id] = step
        self._offsets[key_id] = step - now
        return ValidationOutcome(True, offset=step - now)

    def resync(
        self, key_id: str, secret: bytes, code1: str, code2: str, search: int = 1000
    ) -> ValidationOutcome:
        """Resynchronize a badly drifted token from two consecutive codes.

        Mirrors the LinOTP admin "re-synchronize tokens" operation: scan a
        wide window (:func:`resync_step`) for a step where ``code1`` and
        ``code2`` appear in consecutive steps, then anchor the replay floor
        there.
        """
        center = time_step(self.clock.now(), self.step)
        step = resync_step(secret, code1, code2, center, search, self.digits)
        if step is None:
            return ValidationOutcome(False, reason="resync failed: no consecutive match")
        self._last_accepted[key_id] = step + 1
        # Remember the device's drift so the next validate() centers its
        # window on the device's clock, not ours.
        self._offsets[key_id] = (step + 1) - center
        return ValidationOutcome(True, offset=step - center)

    def forget(self, key_id: str) -> None:
        """Drop replay/drift state for a key (used when a token is unpaired)."""
        self._last_accepted.pop(key_id, None)
        self._offsets.pop(key_id, None)
