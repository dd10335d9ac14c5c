"""Prepared-key HMAC: one key, many messages, one C pass.

``hmac.digest`` derives the key's padded blocks and hashes them again on
every call.  A :class:`PreparedKey` does that once (RFC 2104): it keeps the
hash states after ``key ^ ipad`` and ``key ^ opad``, and each message then
costs two compressions from copies of them.  :meth:`PreparedKey.macs` runs
a whole batch as ``map`` passes over the hash objects' own methods, so the
interpreter makes no call per message; :meth:`PreparedKey.mac` is the same
steps for a lone message, which the passes' set-up would cost more than
they save.

This is the one batched HMAC in the package: the TOTP drift window, the
HOTP look-ahead, the resync scan (:mod:`repro.crypto.hotp`,
:mod:`repro.crypto.totp`) and the secret sealer
(:mod:`repro.crypto.secrets`) all MAC through it.  Every MAC is
byte-identical to ``hmac.digest(key, message, algorithm)``.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import List, Sequence

_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
#: The digests :func:`~repro.crypto.hotp.hotp` accepts (the sealer's is SHA-256),
#: by name: one constructor call each, where ``hashlib.new`` makes two.
_DIGESTS = {"sha1": hashlib.sha1, "sha256": hashlib.sha256, "sha512": hashlib.sha512}


class PreparedKey:
    """An HMAC key whose inner and outer pad blocks are hashed once."""

    __slots__ = ("_inner", "_outer", "_hash")

    def __init__(self, key: bytes, algorithm: str = "sha1") -> None:
        new = _DIGESTS[algorithm]
        inner = new()
        if len(key) > inner.block_size:
            key = new(key).digest()
        key = key.ljust(inner.block_size, b"\0")
        inner.update(key.translate(_IPAD))
        self._inner = inner
        self._outer = new(key.translate(_OPAD))
        self._hash = type(inner)

    def mac(self, message: bytes) -> bytes:
        """``HMAC(key, message)`` for one message (a batch of one costs more)."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def macs(self, messages: Sequence[bytes]) -> List[bytes]:
        """``HMAC(key, m)`` for each of ``messages``, in order."""
        h, n = self._hash, len(messages)
        inner = list(map(h.copy, repeat(self._inner, n)))
        for _ in map(h.update, inner, messages):  # update() returns None
            pass
        outer = list(map(h.copy, repeat(self._outer, n)))
        for _ in map(h.update, outer, map(h.digest, inner)):
            pass
        return list(map(h.digest, outer))
