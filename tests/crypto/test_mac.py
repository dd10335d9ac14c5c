"""The prepared-key HMAC kernel against the one-shot ``hmac.digest``."""

import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hotp import hotp, hotps
from repro.crypto.mac import PreparedKey

SECRET = b"12345678901234567890"


class TestPreparedKey:
    @given(
        algorithm=st.sampled_from(["sha1", "sha256"]),
        # 0-200 bytes crosses the 64-byte block, where a key is hashed first.
        key=st.binary(min_size=0, max_size=200),
        messages=st.lists(st.binary(min_size=0, max_size=100), min_size=0, max_size=40),
    )
    @settings(max_examples=300)
    def test_every_mac_is_hmac_digest(self, algorithm, key, messages):
        expected = [hmac.digest(key, m, algorithm) for m in messages]
        prepared = PreparedKey(key, algorithm)
        assert prepared.macs(messages) == expected
        assert [prepared.mac(m) for m in messages] == expected

    @pytest.mark.parametrize("length", [63, 64, 65, 128, 129])
    def test_keys_at_the_block_edges(self, length):
        key = bytes(range(length))
        for algorithm in ("sha1", "sha256", "sha512"):
            assert PreparedKey(key, algorithm).macs([b"m"]) == [
                hmac.digest(key, b"m", algorithm)
            ]

    def test_a_key_is_reused_unchanged(self):
        key = PreparedKey(SECRET)
        first = key.macs([b"a", b"b"])
        assert key.macs([b"a", b"b"]) == first
        assert key.macs([]) == []

    def test_unknown_digest_is_refused(self):
        with pytest.raises(KeyError):
            PreparedKey(SECRET, "md5")


class TestHotps:
    @given(
        algorithm=st.sampled_from(["sha1", "sha256", "sha512"]),
        digits=st.integers(min_value=6, max_value=10),
        counters=st.lists(st.integers(min_value=0, max_value=2**63), max_size=30),
    )
    @settings(max_examples=200)
    def test_every_code_is_hotp(self, algorithm, digits, counters):
        codes = hotps(PreparedKey(SECRET, algorithm), counters, digits)
        assert codes == [hotp(SECRET, c, digits, algorithm) for c in counters]

    def test_rfc_4226_vectors(self):
        codes = hotps(PreparedKey(SECRET), range(10))
        assert codes[:3] == ["755224", "287082", "359152"]
