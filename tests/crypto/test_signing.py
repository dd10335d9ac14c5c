"""Signed URL behaviour: binding, expiry, tamper resistance."""

import pytest

from repro.common.clock import VirtualClock
from repro.crypto.signing import URLSigner

KEY = b"portal-unpair-signing-key!!"


@pytest.fixture
def clock():
    return VirtualClock(1_000_000.0)


@pytest.fixture
def signer(clock):
    return URLSigner(KEY, clock)


class TestSigning:
    def test_round_trip(self, signer):
        url = signer.sign("/mfa/unpair", "alice")
        assert signer.verify(url) == "alice"

    def test_signed_url_is_the_one_already_mailed(self, signer):
        # Minted by the ``hmac.new(...).hexdigest()`` implementation: links
        # sitting in inboxes must verify, and a re-sign must reproduce them.
        url = (
            "/mfa/unpair?user=alice&expires=1086400&sig="
            "519bbfca7be7d4ea5e0cbe121fe3b04fbb1792dce6cd50591f33ea0e87495c99"
        )
        assert signer.sign("/mfa/unpair", "alice") == url
        assert signer.verify(url) == "alice"

    def test_url_contains_user_expiry_sig(self, signer):
        url = signer.sign("/mfa/unpair", "alice")
        assert "user=alice" in url and "expires=" in url and "sig=" in url

    def test_expired_link_rejected(self, signer, clock):
        url = signer.sign("/mfa/unpair", "alice", ttl=3600)
        clock.advance(3601)
        assert signer.verify(url) is None

    def test_link_valid_until_expiry(self, signer, clock):
        url = signer.sign("/mfa/unpair", "alice", ttl=3600)
        clock.advance(3599)
        assert signer.verify(url) == "alice"

    def test_user_substitution_rejected(self, signer):
        url = signer.sign("/mfa/unpair", "alice")
        assert signer.verify(url.replace("user=alice", "user=mallory")) is None

    def test_path_substitution_rejected(self, signer):
        url = signer.sign("/mfa/unpair", "alice")
        assert signer.verify(url.replace("/mfa/unpair", "/admin/delete")) is None

    def test_signature_tamper_rejected(self, signer):
        url = signer.sign("/mfa/unpair", "alice")
        tampered = url[:-4] + ("0000" if url[-4:] != "0000" else "1111")
        assert signer.verify(tampered) is None

    def test_expiry_extension_rejected(self, signer, clock):
        url = signer.sign("/mfa/unpair", "alice", ttl=10)
        import re

        extended = re.sub(r"expires=\d+", f"expires={int(clock.now()) + 99999}", url)
        clock.advance(60)
        assert signer.verify(extended) is None

    def test_garbage_url_rejected(self, signer):
        assert signer.verify("/mfa/unpair?nonsense=1") is None
        assert signer.verify("") is None

    def test_wrong_key_rejected(self, clock):
        url = URLSigner(KEY, clock).sign("/mfa/unpair", "alice")
        other = URLSigner(b"a-completely-different-key!", clock)
        assert other.verify(url) is None

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            URLSigner(b"short")
