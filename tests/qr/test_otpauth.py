"""otpauth URI building/parsing and the QR provisioning round trip."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.totp import TOTPGenerator
from repro.common.clock import VirtualClock
from repro.qr import build_otpauth_uri, decode_matrix, encode, parse_otpauth_uri

SECRET = b"12345678901234567890"


class TestBuild:
    def test_uri_shape(self):
        uri = build_otpauth_uri(SECRET, "TACC", "cproctor")
        assert uri.startswith("otpauth://totp/TACC%3Acproctor?")
        assert "issuer=TACC" in uri
        assert "digits=6" in uri and "period=30" in uri

    def test_secret_is_unpadded_base32(self):
        uri = build_otpauth_uri(SECRET, "TACC", "user")
        assert "=" not in uri.split("secret=")[1].split("&")[0]


class TestParse:
    def test_round_trip(self):
        uri = build_otpauth_uri(SECRET, "TACC", "cproctor", digits=8, period=60)
        parsed = parse_otpauth_uri(uri)
        assert parsed.secret == SECRET
        assert parsed.issuer == "TACC"
        assert parsed.account == "cproctor"
        assert parsed.digits == 8
        assert parsed.period == 60
        assert parsed.label == "TACC:cproctor"

    def test_defaults(self):
        parsed = parse_otpauth_uri("otpauth://totp/user?secret=GEZDGNBVGY3TQOJQGEZDGNBVGY3TQOJQ")
        assert parsed.digits == 6 and parsed.period == 30 and parsed.algorithm == "SHA1"

    def test_issuer_from_label_when_param_missing(self):
        parsed = parse_otpauth_uri(
            "otpauth://totp/Lab%3Abob?secret=GEZDGNBVGY3TQOJQGEZDGNBVGY3TQOJQ"
        )
        assert parsed.issuer == "Lab" and parsed.account == "bob"

    def test_wrong_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            parse_otpauth_uri("https://totp/x?secret=ABCD")

    def test_hotp_type_rejected(self):
        with pytest.raises(ValueError, match="type"):
            parse_otpauth_uri("otpauth://hotp/x?secret=GEZDGNBVGY3TQOJQGEZDGNBQ")

    def test_missing_secret_rejected(self):
        with pytest.raises(ValueError, match="secret"):
            parse_otpauth_uri("otpauth://totp/x?issuer=TACC")


class TestProvisioningRoundTrip:
    def test_qr_scan_seeds_working_device(self):
        """The complete soft-token pairing path: URI -> QR -> scan -> TOTP."""
        clock = VirtualClock(1_000_000.0)
        uri = build_otpauth_uri(SECRET, "HPC-Center", "alice")
        qr = encode(uri, level="M")
        scanned = parse_otpauth_uri(decode_matrix(qr.matrix).decode())
        device = TOTPGenerator(secret=scanned.secret, clock=clock)
        reference = TOTPGenerator(secret=SECRET, clock=clock)
        assert device.current_code() == reference.current_code()

    @given(account=st.text(alphabet="abcdefghijklmnop0123456789_-", min_size=1, max_size=20))
    def test_account_names_survive(self, account):
        uri = build_otpauth_uri(SECRET, "X", account)
        assert parse_otpauth_uri(uri).account == account
