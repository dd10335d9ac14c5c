"""HMAC-signed, expiring URLs.

Section 3.5: when a user has lost their token device, "the user is sent an
email ... that contains a signed URL" which proves control of the account's
email address and authorizes an out-of-band unpairing.  This module builds
and verifies those URLs: the signature covers the path, the target user and
an expiry timestamp, so links cannot be forged, redirected to another
account, or used after they lapse.
"""

from __future__ import annotations

import hmac
from typing import Optional
from urllib.parse import parse_qs, urlencode, urlsplit

from repro.common.clock import Clock, WallClock

#: How long an unpairing link stays valid (matches common practice of a
#: small number of hours; the paper does not specify a figure).
DEFAULT_TTL = 24 * 3600


class URLSigner:
    """Produces and verifies signed URLs bound to a user and an expiry."""

    def __init__(self, key: bytes, clock: Optional[Clock] = None) -> None:
        if len(key) < 16:
            raise ValueError("signing key must be at least 16 bytes")
        self._key = key
        self._clock = clock or WallClock()

    def _signature(self, path: str, username: str, expires: int) -> str:
        payload = f"{path}|{username}|{expires}".encode()
        return hmac.digest(self._key, payload, "sha256").hex()

    def sign(self, path: str, username: str, ttl: int = DEFAULT_TTL) -> str:
        """Return ``path?user=...&expires=...&sig=...``."""
        expires = int(self._clock.now()) + ttl
        sig = self._signature(path, username, expires)
        query = urlencode({"user": username, "expires": expires, "sig": sig})
        return f"{path}?{query}"

    def verify(self, url: str) -> Optional[str]:
        """Return the authorized username, or ``None`` if invalid/expired."""
        parts = urlsplit(url)
        params = parse_qs(parts.query)
        try:
            username = params["user"][0]
            expires = int(params["expires"][0])
            sig = params["sig"][0]
        except (KeyError, IndexError, ValueError):
            return None
        if self._clock.now() > expires:
            return None
        expected = self._signature(parts.path, username, expires)
        if not hmac.compare_digest(expected, sig):
            return None
        return username
