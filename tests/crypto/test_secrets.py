"""Secret generation and at-rest sealing."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.secrets import SecretSealer, generate_secret, secret_to_base32

KEY = b"0123456789abcdef0123456789abcdef"


class TestGenerateSecret:
    def test_default_length(self):
        assert len(generate_secret(rng=random.Random(1))) == 20

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            generate_secret(nbytes=15)

    def test_deterministic_with_seed(self):
        a = generate_secret(rng=random.Random(42))
        b = generate_secret(rng=random.Random(42))
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_secret(rng=random.Random(1)) != generate_secret(
            rng=random.Random(2)
        )

    def test_base32_rendering_unpadded(self):
        text = secret_to_base32(generate_secret(rng=random.Random(3)))
        assert "=" not in text
        assert text.isalnum()


class TestSealer:
    def test_round_trip(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        secret = b"12345678901234567890"
        assert sealer.unseal(sealer.seal(secret)) == secret

    def test_sealed_blob_hides_plaintext(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        secret = b"A" * 20
        assert secret not in sealer.seal(secret)

    def test_nonce_makes_seals_differ(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        secret = b"12345678901234567890"
        assert sealer.seal(secret) != sealer.seal(secret)

    def test_tamper_detected(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        blob = bytearray(sealer.seal(b"12345678901234567890"))
        blob[14] ^= 0x01  # flip a ciphertext bit
        with pytest.raises(ValueError, match="integrity"):
            sealer.unseal(bytes(blob))

    def test_tag_tamper_detected(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        blob = bytearray(sealer.seal(b"12345678901234567890"))
        blob[-1] ^= 0x80
        with pytest.raises(ValueError):
            sealer.unseal(bytes(blob))

    def test_truncated_blob_rejected(self):
        sealer = SecretSealer(KEY, rng=random.Random(1))
        with pytest.raises(ValueError, match="too short"):
            sealer.unseal(b"short")

    def test_wrong_key_rejected(self):
        blob = SecretSealer(KEY, rng=random.Random(1)).seal(b"x" * 20)
        other = SecretSealer(b"another-master-key-0123456789ab", rng=random.Random(2))
        with pytest.raises(ValueError):
            other.unseal(blob)

    def test_short_master_key_rejected(self):
        with pytest.raises(ValueError):
            SecretSealer(b"short")

    @given(st.binary(min_size=0, max_size=100))
    def test_round_trip_any_payload(self, payload):
        sealer = SecretSealer(KEY, rng=random.Random(9))
        assert sealer.unseal(sealer.seal(payload)) == payload


class TestStoredFormat:
    """Blobs sealed by the per-byte, ``hmac.new`` implementation (the
    commit before the one-shot HMAC) — rows already in a database — must
    unseal, and a seeded sealer must still produce exactly them."""

    GOLDEN_KEY = b"golden-master-key-0123456789abcdef"
    GOLDEN = (  # (secret, seal(secret).hex()), sealed in this order, rng seed 20160810
        (
            bytes(range(20)),
            "68579e71a5391fb021238a102c288a4944c7c1fbb64f9f3e61941948"
            "c121a0bbf6c42cdbb269db63bf48c22063524539",
        ),
        (b"", "3a79ecad3d2719b3b1e1ac1125e8cfbf4e46d6f0d38457bcbfff54d2"),
        (
            bytes(range(70)),  # more than two keystream blocks
            "30e4a3c0f2d2bb8352a2406c6f94fc9f520fb3061d688c5c6d18ba2de25aa0faf36c"
            "4f82b34eeaf63e65edc60991809288bc9bb7e23437566946a2467609c55eb2e2cc05"
            "4ed4217655bccd820429816d2e6f1418039f3773f75f8d0c591e3ba713eb",
        ),
    )

    def test_golden_blobs_unseal(self):
        sealer = SecretSealer(self.GOLDEN_KEY)
        for secret, blob in self.GOLDEN:
            assert sealer.unseal(bytes.fromhex(blob)) == secret

    def test_seal_output_is_byte_identical_for_a_seeded_rng(self):
        sealer = SecretSealer(self.GOLDEN_KEY, rng=random.Random(20160810))
        for secret, blob in self.GOLDEN:
            assert sealer.seal(secret).hex() == blob

    def test_every_flipped_bit_of_a_golden_blob_is_refused(self):
        sealer = SecretSealer(self.GOLDEN_KEY)
        blob = bytes.fromhex(self.GOLDEN[0][1])
        for bit in range(len(blob) * 8):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError, match="integrity"):
                sealer.unseal(bytes(flipped))
