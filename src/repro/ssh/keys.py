"""SSH key pairs, simulated.

Real asymmetric signatures are out of scope (and irrelevant to the MFA
logic); what the infrastructure needs is that a client *possessing* a key
can prove it to a daemon that knows the corresponding authorized public
key.  We model a key pair as a random seed; the "public key" is a
fingerprint derived from it, and possession is proven by presenting a
challenge response HMAC'd with the seed — preserving the property that
knowing the fingerprint alone cannot authenticate.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import Optional

from repro.common.ids import random_octets


def fingerprint(public_key: str) -> str:
    """OpenSSH-style SHA256 fingerprint of a public key string."""
    digest = hashlib.sha256(public_key.encode()).hexdigest()[:43]
    return f"SHA256:{digest}"


@dataclass(frozen=True)
class KeyPair:
    """A client key: private seed + derived public key."""

    private_seed: bytes
    comment: str = ""

    @classmethod
    def generate(cls, comment: str = "", rng: Optional[random.Random] = None) -> "KeyPair":
        return cls(random_octets(rng or random.Random(), 32), comment)

    @property
    def public_key(self) -> str:
        """The authorized_keys line content (type + key material + comment)."""
        material = hashlib.sha256(b"pub:" + self.private_seed).hexdigest()
        return f"ssh-ed25519 {material} {self.comment}".strip()

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.public_key)

    def sign(self, challenge: bytes) -> bytes:
        """Prove possession of the private half."""
        return hmac.digest(self.private_seed, b"sig:" + challenge, "sha256")

    def verify_with_public(self, challenge: bytes, signature: bytes) -> bool:
        """Verification as the daemon would do with the public key.

        In a real signature scheme the daemon verifies with only the public
        key.  Our HMAC stand-in cannot do that, so the daemon model keeps a
        registry mapping fingerprints to verifier callables created at
        ``authorized_keys`` installation time (see
        :meth:`SSHDaemon.authorize_key`) — preserving the trust topology:
        the daemon never holds the private seed.
        """
        expected = self.sign(challenge)
        return hmac.compare_digest(expected, signature)
