"""RFC 4226 HMAC-based one-time passwords.

HOTP is the primitive underneath TOTP: a counter is MACed with the shared
secret and dynamically truncated to a short decimal code.  The paper's
tokens are all six-digit TOTP devices, but the Feitian hard tokens are
fundamentally HOTP devices driven by a time counter, so we expose the
counter-based primitive directly (it is also what LinOTP's resync uses).

:func:`hotp` is one code, one one-shot ``hmac.digest``.  :func:`hotps` is
many codes under one :class:`~repro.crypto.mac.PreparedKey`, MACed and
truncated in C passes: every window search (the HOTP look-ahead here, the
TOTP drift window and resync scan in :mod:`repro.crypto.totp`) probes its
likeliest counter with :func:`hotp` and only on a miss runs the rest
through :func:`hotps`.
"""

from __future__ import annotations

import hmac
import struct
from itertools import repeat
from operator import and_, itemgetter, mod
from typing import List, Sequence

from repro.crypto.mac import PreparedKey

_COUNTER = struct.Struct(">Q").pack
_WORD_AT = struct.Struct(">I").unpack_from
_LAST, _ONLY = itemgetter(-1), itemgetter(0)


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


def hotps(key: PreparedKey, counters: Sequence[int], digits: int = 6) -> List[str]:
    """:func:`hotp` of each of ``counters`` (non-negative) under ``key``."""
    digests = key.macs(list(map(_COUNTER, counters)))
    # hotp()'s dynamic truncation, one map pass per step of it.  hotp() keeps
    # its own inline copy: this chain over a one-digest list costs it a
    # third more time.
    offsets = map(and_, map(_LAST, digests), repeat(0x0F))
    words = map(_ONLY, map(_WORD_AT, digests, offsets))
    binaries = map(and_, words, repeat(0x7FFFFFFF))
    return list(map(f"%0{digits}d".__mod__, map(mod, binaries, repeat(10**digits))))


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
    look_ahead]`` matches.  ``counter`` itself is one :func:`hotp` call; only
    a miss MACs the look-ahead, in one :func:`hotps` pass.  Comparison is
    constant-time per candidate.  A code with a non-ASCII character matches
    nothing (``hmac.compare_digest`` raises on non-ASCII text).
    """
    if look_ahead < 0 or not code.isascii():
        return None
    if hmac.compare_digest(hotp(secret, counter, digits, algorithm), code):
        return counter
    ahead = range(counter + 1, counter + look_ahead + 1)
    codes = hotps(PreparedKey(secret, algorithm), ahead, digits)
    matches = list(map(hmac.compare_digest, codes, repeat(code)))
    return ahead[matches.index(True)] if True in matches else None
