"""RFC 4226 HMAC-based one-time passwords.

HOTP is the primitive underneath TOTP: a counter is MACed with the shared
secret and dynamically truncated to a short decimal code.  The paper's
tokens are all six-digit TOTP devices, but the Feitian hard tokens are
fundamentally HOTP devices driven by a time counter, so we expose the
counter-based primitive directly (it is also what LinOTP's resync uses).
"""

from __future__ import annotations

import hmac


def hotp(
    secret: bytes,
    counter: int,
    digits: int = 6,
    algorithm: str = "sha1",
) -> str:
    """Compute the RFC 4226 HOTP value for ``counter``.

    Returns a zero-padded decimal string of ``digits`` characters.  SHA-1 is
    the RFC default and what every device in the paper (Google-Authenticator
    derivative, Feitian c200, LinOTP SMS tokens) uses; SHA-256/512 are
    accepted for forward compatibility.
    """
    if counter < 0:
        raise ValueError(f"HOTP counter must be non-negative, got {counter}")
    if not 6 <= digits <= 10:
        raise ValueError(f"HOTP digits must be in [6, 10], got {digits}")
    if algorithm not in ("sha1", "sha256", "sha512"):
        raise ValueError(f"unsupported HOTP algorithm {algorithm!r}")
    msg = counter.to_bytes(8, "big")
    digest = hmac.digest(secret, msg, algorithm)
    # Dynamic truncation (RFC 4226 section 5.3): the low nibble of the last
    # byte selects a 4-byte window; the top bit of that window is masked.
    offset = digest[-1] & 0x0F
    binary = int.from_bytes(digest[offset : offset + 4], "big") & 0x7FFFFFFF
    return str(binary % (10**digits)).zfill(digits)


def verify_hotp(
    secret: bytes,
    code: str,
    counter: int,
    look_ahead: int = 0,
    digits: int = 6,
    algorithm: str = "sha1",
) -> int | None:
    """Verify ``code`` against ``counter`` with an optional look-ahead window.

    Returns the matching counter value (so the caller can advance its stored
    counter past it) or ``None`` if nothing in ``[counter, counter +
    look_ahead]`` matches.  Comparison is constant-time per candidate.
    """
    for c in range(counter, counter + look_ahead + 1):
        expected = hotp(secret, c, digits=digits, algorithm=algorithm)
        if hmac.compare_digest(expected, code):
            return c
    return None
