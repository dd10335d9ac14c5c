"""Reference implementations the crypto kernel is checked against.

These are the per-step searches and the per-block sealer as they were
before the prepared-key kernel (:mod:`repro.crypto.mac`): one one-shot
``hotp`` / ``hmac.digest`` per candidate, in a plain loop.  They are kept
verbatim so the differential tests can require the kernel-backed code to
give the same verdicts, the same floor and offset state and the same bytes.
Only the one-shot :func:`repro.crypto.hotp.hotp` is shared with the code
under test, and it has its own RFC vectors.
"""

from __future__ import annotations

import hmac
import random
from typing import Dict, Optional

from repro.common.clock import Clock, WallClock
from repro.common.ids import random_octets
from repro.crypto.hotp import hotp
from repro.crypto.totp import (
    DEFAULT_DRIFT,
    DEFAULT_STEP,
    REASON_MALFORMED,
    REASON_NO_MATCH,
    REASON_REPLAY,
    ValidationOutcome,
    time_step,
)


def verify_hotp(
    secret: bytes,
    code: str,
    counter: int,
    look_ahead: int = 0,
    digits: int = 6,
    algorithm: str = "sha1",
) -> int | None:
    for c in range(counter, counter + look_ahead + 1):
        expected = hotp(secret, c, digits=digits, algorithm=algorithm)
        if hmac.compare_digest(expected, code):
            return c
    return None


class TOTPValidator:
    """Per-step validation and resync, one ``hotp`` per probed step."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        digits: int = 6,
        step: int = DEFAULT_STEP,
        drift: int = DEFAULT_DRIFT,
    ) -> None:
        self.clock = clock or WallClock()
        self.digits = digits
        self.step = step
        self.drift = drift
        self._last_accepted: Dict[str, int] = {}
        self._offsets: Dict[str, int] = {}

    @property
    def window(self) -> int:
        return self.drift // self.step

    def validate(self, key_id: str, secret: bytes, code: str) -> ValidationOutcome:
        if len(code) != self.digits or not code.isdigit():
            return ValidationOutcome(False, reason=REASON_MALFORMED)
        center = time_step(self.clock.now(), self.step) + self._offsets.get(key_id, 0)
        floor = self._last_accepted.get(key_id, -1)
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
                    self._offsets[key_id] = (step + 1) - center
                    return ValidationOutcome(True, offset=step - center)
        return ValidationOutcome(False, reason="resync failed: no consecutive match")


def _xor(data: bytes, stream: bytes) -> bytes:
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


class SecretSealer:
    """The sealer with one one-shot ``hmac.digest`` per keystream block."""

    _TAG_LEN = 16
    _NONCE_LEN = 12

    def __init__(self, master_key: bytes, rng: random.Random | None = None) -> None:
        self._key = master_key
        self._rng = rng or random.Random()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        out = bytearray()
        counter = 0
        while len(out) < length:
            out.extend(
                hmac.digest(self._key, nonce + counter.to_bytes(4, "big"), "sha256")
            )
            counter += 1
        return bytes(out[:length])

    def seal(self, secret: bytes) -> bytes:
        nonce = random_octets(self._rng, self._NONCE_LEN)
        stream = self._keystream(nonce, len(secret))
        ciphertext = _xor(secret, stream)
        tag = hmac.digest(self._key, nonce + ciphertext, "sha256")
        return nonce + ciphertext + tag[: self._TAG_LEN]

    def unseal(self, blob: bytes) -> bytes:
        if len(blob) < self._NONCE_LEN + self._TAG_LEN:
            raise ValueError("sealed blob too short")
        nonce = blob[: self._NONCE_LEN]
        ciphertext = blob[self._NONCE_LEN : -self._TAG_LEN]
        tag = blob[-self._TAG_LEN :]
        expected = hmac.digest(self._key, nonce + ciphertext, "sha256")
        if not hmac.compare_digest(expected[: self._TAG_LEN], tag):
            raise ValueError("sealed blob failed integrity check")
        stream = self._keystream(nonce, len(ciphertext))
        return _xor(ciphertext, stream)
