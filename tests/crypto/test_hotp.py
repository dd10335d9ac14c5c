"""HOTP: RFC 4226 vectors, verification windows, parameter validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hotp import hotp, verify_hotp
from tests.crypto import reference

SECRET = b"12345678901234567890"

# RFC 4226 appendix D.
RFC_CODES = [
    "755224", "287082", "359152", "969429", "338314",
    "254676", "287922", "162583", "399871", "520489",
]


class TestRFCVectors:
    @pytest.mark.parametrize("counter,code", list(enumerate(RFC_CODES)))
    def test_vector(self, counter, code):
        assert hotp(SECRET, counter) == code


    # RFC 6238 appendix B, times 59 and 1111111109 (30 s steps, 8 digits):
    # the digest is picked by name, so each name gets its own vectors.
    @pytest.mark.parametrize(
        "algorithm,seed,codes",
        [
            ("sha1", SECRET, ("94287082", "07081804")),
            ("sha256", SECRET + b"123456789012", ("46119246", "68084774")),
            ("sha512", SECRET * 3 + b"1234", ("90693936", "25091201")),
        ],
    )
    def test_every_digest(self, algorithm, seed, codes):
        for counter, code in zip((59 // 30, 1111111109 // 30), codes):
            assert hotp(seed, counter, digits=8, algorithm=algorithm) == code


class TestParameters:
    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            hotp(SECRET, -1)

    def test_digit_range(self):
        with pytest.raises(ValueError):
            hotp(SECRET, 0, digits=5)
        with pytest.raises(ValueError):
            hotp(SECRET, 0, digits=11)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            hotp(SECRET, 0, algorithm="md5")

    def test_eight_digits(self):
        code = hotp(SECRET, 0, digits=8)
        assert len(code) == 8 and code.isdigit()

    def test_sha256_differs_from_sha1(self):
        assert hotp(SECRET, 5) != hotp(SECRET, 5, algorithm="sha256")

    @given(st.integers(min_value=0, max_value=10**9))
    def test_always_zero_padded_six_digits(self, counter):
        code = hotp(SECRET, counter)
        assert len(code) == 6 and code.isdigit()


class TestVerify:
    def test_exact_counter(self):
        assert verify_hotp(SECRET, RFC_CODES[3], counter=3) == 3

    def test_look_ahead_window(self):
        # Device is ahead of the server by 4 presses.
        assert verify_hotp(SECRET, RFC_CODES[7], counter=3, look_ahead=5) == 7

    def test_outside_window(self):
        assert verify_hotp(SECRET, RFC_CODES[9], counter=3, look_ahead=2) is None

    def test_wrong_code(self):
        assert verify_hotp(SECRET, "000000", counter=0, look_ahead=10) is None

    def test_behind_counter_not_accepted(self):
        # Codes before the stored counter never verify (replay).
        assert verify_hotp(SECRET, RFC_CODES[1], counter=3, look_ahead=10) is None

    @pytest.mark.parametrize("code", ["١٢٣٤٥٦", "１２３４５６", "75522é"])
    def test_non_ascii_code_matches_nothing(self, code):
        # ``hmac.compare_digest`` raises on non-ASCII text: such a code is
        # refused before any candidate is compared.
        assert verify_hotp(SECRET, code, counter=0, look_ahead=10) is None

    @given(
        counter=st.integers(min_value=0, max_value=2**40),
        look_ahead=st.integers(min_value=-1, max_value=30),
        at=st.integers(min_value=-3, max_value=35),
        digits=st.integers(min_value=6, max_value=8),
        algorithm=st.sampled_from(["sha1", "sha256", "sha512"]),
    )
    @settings(max_examples=200)
    def test_the_look_ahead_matches_the_per_counter_reference(
        self, counter, look_ahead, at, digits, algorithm
    ):
        # The code shown ``at`` presses from the stored counter (before,
        # inside or past the look-ahead), and a code nothing shows.
        for code in (hotp(SECRET, max(0, counter + at), digits, algorithm), "0" * digits):
            args = (SECRET, code, counter, look_ahead, digits, algorithm)
            assert verify_hotp(*args) == reference.verify_hotp(*args)
