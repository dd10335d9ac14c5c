"""Secret-key generation and at-rest sealing.

LinOTP stores each user's OTP seed in "an encrypted MariaDB relational
database" (Section 3.1).  Our database substrate is in-memory, but we keep
the property that secrets are never stored in the clear: the
:class:`SecretSealer` wraps seeds with an HMAC-SHA256-derived keystream plus
an integrity tag before they reach a table row, and unseals them only inside
the validation path.
"""

from __future__ import annotations

import hmac
import random

from repro.common.ids import random_octets
from repro.crypto.base32 import b32encode

#: RFC 4226 recommends seeds of at least 128 bits; 160 matches SHA-1 output
#: length and is what Feitian ships in the c200.
DEFAULT_SECRET_BYTES = 20


def generate_secret(
    nbytes: int = DEFAULT_SECRET_BYTES, rng: random.Random | None = None
) -> bytes:
    """Generate a fresh OTP seed.

    A seeded ``rng`` makes enrollment reproducible in tests and in the
    rollout simulation; passing ``None`` uses a fresh ``random.Random``
    (this library is a simulator — for a real deployment substitute
    ``secrets.token_bytes``).
    """
    if nbytes < 16:
        raise ValueError(f"secret must be at least 16 bytes, got {nbytes}")
    return random_octets(rng or random.Random(), nbytes)


def secret_to_base32(secret: bytes) -> str:
    """Render a seed the way otpauth URIs and pairing pages display it."""
    return b32encode(secret, pad=False)


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data ^ stream`` (equal lengths) as one big-integer operation."""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


class SecretSealer:
    """Seals/unseals OTP seeds for at-rest storage.

    The construction is an HMAC-based stream cipher with an integrity tag:

    * keystream = HMAC-SHA256(master_key, nonce || counter) blocks,
    * tag = HMAC-SHA256(master_key, nonce || ciphertext), truncated to 16
      bytes.

    This models the confidentiality+integrity property of LinOTP's encrypted
    store without depending on an external crypto library.
    """

    _TAG_LEN = 16
    _NONCE_LEN = 12

    def __init__(self, master_key: bytes, rng: random.Random | None = None) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be at least 16 bytes")
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
        """Return ``nonce || ciphertext || tag`` for storage."""
        nonce = random_octets(self._rng, self._NONCE_LEN)
        stream = self._keystream(nonce, len(secret))
        ciphertext = _xor(secret, stream)
        tag = hmac.digest(self._key, nonce + ciphertext, "sha256")
        return nonce + ciphertext + tag[: self._TAG_LEN]

    def unseal(self, blob: bytes) -> bytes:
        """Recover the seed; raises :class:`ValueError` if tampered."""
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
