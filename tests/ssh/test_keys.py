"""Key pairs: fingerprints, possession proofs."""

import dataclasses
import random

import pytest

from repro.ssh.keys import KeyPair, fingerprint


class TestKeyPair:
    def test_generate_deterministic(self):
        a = KeyPair.generate(rng=random.Random(1))
        b = KeyPair.generate(rng=random.Random(1))
        assert a.private_seed == b.private_seed

    def test_distinct_keys(self):
        a = KeyPair.generate(rng=random.Random(1))
        b = KeyPair.generate(rng=random.Random(2))
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_format(self):
        key = KeyPair.generate(rng=random.Random(3))
        assert key.fingerprint.startswith("SHA256:")

    def test_fingerprint_of_public_key(self):
        key = KeyPair.generate(rng=random.Random(4))
        assert key.fingerprint == fingerprint(key.public_key)

    def test_public_key_hides_private_seed(self):
        key = KeyPair.generate(rng=random.Random(5))
        assert key.private_seed.hex() not in key.public_key

    def test_comment_in_public_key(self):
        key = KeyPair.generate(comment="alice@laptop", rng=random.Random(6))
        assert key.public_key.endswith("alice@laptop")

    def test_sign_verify(self):
        key = KeyPair.generate(rng=random.Random(7))
        challenge = b"login-challenge"
        assert key.verify_with_public(challenge, key.sign(challenge))

    def test_wrong_signature_rejected(self):
        key = KeyPair.generate(rng=random.Random(8))
        other = KeyPair.generate(rng=random.Random(9))
        challenge = b"login-challenge"
        assert not key.verify_with_public(challenge, other.sign(challenge))

    def test_signature_bound_to_challenge(self):
        key = KeyPair.generate(rng=random.Random(10))
        assert not key.verify_with_public(b"challenge-2", key.sign(b"challenge-1"))


#: ``(seed, comment) -> (public_key, fingerprint)`` of ``KeyPair.generate``,
#: minted when the public line was still re-derived on every read: deriving
#: it once at construction must not change a byte of either.
GOLDEN = {
    (7, "alice"): (
        "ssh-ed25519 b4870e7b9176a8c5b386ed6b175cf295ed10365f76be049237fe4e61e65c284d alice",
        "SHA256:587d608c9cae9cd490270e452d69e5f7da934c36491",
    ),
    (1, ""): (
        "ssh-ed25519 9aff1ef4e9050bcb9cbd028de8c8052b809c0bc648c8402faecc994e365ba9ba",
        "SHA256:7019dde3fa76168c88a01da63cf89cc83e9e14f6d9d",
    ),
    (20160810, "bob@laptop"): (
        "ssh-ed25519 f4b5dcd5d33f7953f6399270d797503d855f5e000cada47293029cf700c6c24e bob@laptop",
        "SHA256:82aefb9d4285c9c97bb3fd45a11e121d00932c08a4e",
    ),
}


class TestPublicKeyField:
    def test_public_key_and_fingerprint_match_the_golden(self):
        for (seed, comment), expected in GOLDEN.items():
            key = KeyPair.generate(comment, rng=random.Random(seed))
            assert (key.public_key, key.fingerprint) == expected

    def test_public_key_is_a_frozen_field_outside_equality(self):
        key = KeyPair.generate("alice", rng=random.Random(7))
        same = KeyPair(key.private_seed, "alice")
        assert same == key and hash(same) == hash(key)
        assert same.public_key == key.public_key
        with pytest.raises(dataclasses.FrozenInstanceError):
            key.public_key = "ssh-ed25519 forged"
