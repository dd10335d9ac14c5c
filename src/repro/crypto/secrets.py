"""Secret-key generation and at-rest sealing.

LinOTP stores each user's OTP seed in "an encrypted MariaDB relational
database" (Section 3.1).  Our database substrate is in-memory, but we keep
the property that secrets are never stored in the clear: the
:class:`SecretSealer` wraps seeds with an HMAC-SHA256-derived keystream plus
an integrity tag before they reach a table row, and unseals them only inside
the validation path.  The master key never changes, so the sealer prepares
it once (:class:`~repro.crypto.mac.PreparedKey`): an unseal MACs its tag
and its keystream blocks in one pass, a seal (which needs the ciphertext
before the tag) its keystream in one and its tag in a second.
"""

from __future__ import annotations

import hmac
import random
import struct
from typing import List

from repro.common.ids import random_octets
from repro.crypto.mac import PreparedKey

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


#: A keystream block is one HMAC-SHA256 output.
_BLOCK_LEN = 32
_BLOCK_INDEX = struct.Struct(">I").pack


def _block_messages(nonce: bytes, length: int) -> List[bytes]:
    """The messages ``nonce || counter`` of a ``length``-byte keystream."""
    return list(map(nonce.__add__, map(_BLOCK_INDEX, range(-(-length // _BLOCK_LEN)))))


def _xor(data: bytes, blocks: List[bytes]) -> bytes:
    """``data`` XOR the keystream ``blocks``, as one big-integer operation."""
    n = len(data)
    stream = int.from_bytes(b"".join(blocks)[:n], "big")
    return (int.from_bytes(data, "big") ^ stream).to_bytes(n, "big")


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
        self._key = PreparedKey(master_key, "sha256")
        self._rng = rng or random.Random()

    def seal(self, secret: bytes) -> bytes:
        """Return ``nonce || ciphertext || tag`` for storage."""
        nonce = random_octets(self._rng, self._NONCE_LEN)
        ciphertext = _xor(secret, self._key.macs(_block_messages(nonce, len(secret))))
        tag = self._key.mac(nonce + ciphertext)
        return nonce + ciphertext + tag[: self._TAG_LEN]

    def unseal(self, blob: bytes) -> bytes:
        """Recover the seed; raises :class:`ValueError` if tampered."""
        if len(blob) < self._NONCE_LEN + self._TAG_LEN:
            raise ValueError("sealed blob too short")
        nonce = blob[: self._NONCE_LEN]
        ciphertext = blob[self._NONCE_LEN : -self._TAG_LEN]
        tag = blob[-self._TAG_LEN :]
        expected, *stream = self._key.macs(
            [nonce + ciphertext, *_block_messages(nonce, len(ciphertext))]
        )
        if not hmac.compare_digest(expected[: self._TAG_LEN], tag):
            raise ValueError("sealed blob failed integrity check")
        return _xor(ciphertext, stream)
