"""``random_octets``: one draw, the per-octet draws' bytes and stream position.

The per-octet generator it replaced is kept here as the reference, and the
values a seeded deployment derives from it — an OTP seed, a key pair, a
Request Authenticator — are pinned as minted at the commit that still drew
them one octet at a time (the sealed blobs of
``tests/crypto/test_secrets.py::TestStoredFormat`` are the fourth).
"""

import random

import pytest

from repro.common.ids import random_octets
from repro.crypto.secrets import generate_secret
from repro.radius.packet import new_request_authenticator
from repro.ssh.keys import KeyPair


def per_octet(rng: random.Random, n: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(n))


@pytest.mark.parametrize("seed", (7, 20160810, 424242))
@pytest.mark.parametrize("n", (0, 1, 12, 16, 20, 32, 64))
def test_one_draw_is_the_n_draws(seed, n):
    one, many = random.Random(seed), random.Random(seed)
    assert random_octets(one, n) == per_octet(many, n)
    # A shared seeded stream is left exactly where the n draws left it.
    assert one.getstate() == many.getstate()


class TestSeededValuesAreTheParents:
    def test_otp_seed(self):
        assert generate_secret(rng=random.Random(7)).hex() == (
            "52f22665a60c12d289185d950ee8813609166f6b"
        )

    def test_key_pair(self):
        key = KeyPair.generate(rng=random.Random(7))
        assert key.fingerprint == "SHA256:ecf71ef4c62a4ba1e9d844db6966a4aa895ead8afa6"
        assert key.sign(b"challenge-1").hex() == (
            "478d664304a26daa2abca011421e14e0c613252fc54db17ba00e101a6e76ae3f"
        )

    def test_request_authenticator(self):
        assert new_request_authenticator(random.Random(2)).hex() == (
            "f4dcf2d90e17155cd52bbccfabda4e40"
        )
