"""HTTP Digest authentication: handshake, replay protection, failures."""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.digest_auth import (
    DigestClient,
    DigestCredentials,
    DigestVerifier,
    digest_response,
    ha1,
    ha2,
)


@pytest.fixture
def verifier():
    v = DigestVerifier("LinOTP admin area", rng=random.Random(1))
    v.add_user("portal", "hunter2")
    return v


@pytest.fixture
def client():
    return DigestClient("portal", "hunter2", rng=random.Random(2))


class TestPrimitives:
    def test_ha1_known_value(self):
        # RFC 2617's worked example (user Mufasa).
        assert ha1("Mufasa", "testrealm@host.com", "Circle Of Life") == (
            "939e7578ed9e3c518a452acee763bce9"
        )

    def test_ha2_method_uri(self):
        assert ha2("GET", "/dir/index.html") == "39aff3a2bab6126f332b942af96d3366"

    def test_rfc2617_worked_example(self):
        response = digest_response(
            ha1("Mufasa", "testrealm@host.com", "Circle Of Life"),
            "dcd98b7102dd2f0e8b11d0f600bfb0c093",
            "00000001",
            "0a4f113b",
            "auth",
            ha2("GET", "/dir/index.html"),
        )
        assert response == "6629fae49393a05397450978507c4ef1"


class TestHandshake:
    def test_valid_credentials_verify(self, verifier, client):
        challenge = verifier.challenge()
        creds = client.respond(challenge, "POST", "/admin/init")
        assert verifier.verify(creds, "POST", "/admin/init")

    def test_wrong_password_rejected(self, verifier):
        bad = DigestClient("portal", "wrong", rng=random.Random(3))
        challenge = verifier.challenge()
        creds = bad.respond(challenge, "GET", "/admin/show")
        assert not verifier.verify(creds, "GET", "/admin/show")

    def test_unknown_user_rejected(self, verifier):
        stranger = DigestClient("nobody", "hunter2", rng=random.Random(4))
        creds = stranger.respond(verifier.challenge(), "GET", "/x")
        assert not verifier.verify(creds, "GET", "/x")

    def test_uri_mismatch_rejected(self, verifier, client):
        creds = client.respond(verifier.challenge(), "POST", "/admin/init")
        assert not verifier.verify(creds, "POST", "/admin/remove")

    def test_method_mismatch_rejected(self, verifier, client):
        creds = client.respond(verifier.challenge(), "POST", "/admin/init")
        assert not verifier.verify(creds, "GET", "/admin/init")

    def test_fabricated_nonce_rejected(self, verifier, client):
        challenge = verifier.challenge()
        challenge.nonce = "f" * 32  # not issued by the verifier
        creds = client.respond(challenge, "GET", "/x")
        assert not verifier.verify(creds, "GET", "/x")


class TestRouteTable:
    """A served route's HA2 comes from the caller's table; any other
    request line is hashed for that request."""

    def test_both_sides_read_ha2_from_the_table(self, verifier, client):
        # A table entry that is not H(method:uri) shows it was read, not recomputed.
        table = {("GET", "/x"): "0" * 32}
        creds = client.respond(verifier.challenge(), "GET", "/x", table)
        assert creds.response == digest_response(
            ha1("portal", verifier.realm, "hunter2"), creds.nonce, creds.nc, creds.cnonce,
            "auth", "0" * 32,
        )
        assert not verifier.verify(creds, "GET", "/x")  # hashes H(GET:/x)
        assert verifier.verify(creds, "GET", "/x", table)

    def test_a_line_outside_the_table_is_hashed(self, verifier, client):
        table = {("GET", "/x"): ha2("GET", "/x")}
        creds = client.respond(verifier.challenge(), "POST", "/y", table)
        assert creds.response == digest_response(
            ha1("portal", verifier.realm, "hunter2"), creds.nonce, creds.nc, creds.cnonce,
            "auth", ha2("POST", "/y"),
        )
        assert verifier.verify(creds, "POST", "/y", table)
        assert table == {("GET", "/x"): ha2("GET", "/x")}  # nothing stored


class TestReplayProtection:
    def test_replayed_credentials_rejected(self, verifier, client):
        challenge = verifier.challenge()
        creds = client.respond(challenge, "POST", "/admin/init")
        assert verifier.verify(creds, "POST", "/admin/init")
        # Same Authorization header sent again: rejected.
        assert not verifier.verify(creds, "POST", "/admin/init")

    def test_incrementing_nc_allows_reuse_of_nonce(self, verifier, client):
        challenge = verifier.challenge()
        first = client.respond(challenge, "POST", "/admin/init")
        second = client.respond(challenge, "POST", "/admin/init")
        assert first.nc != second.nc
        assert verifier.verify(first, "POST", "/admin/init")
        assert verifier.verify(second, "POST", "/admin/init")

    def test_password_never_in_credentials(self, verifier, client):
        creds = client.respond(verifier.challenge(), "POST", "/admin/init")
        for value in vars(creds).values():
            assert "hunter2" not in str(value)

    def test_out_of_order_nc_rejected(self, verifier, client):
        challenge = verifier.challenge()
        first = client.respond(challenge, "POST", "/admin/init")
        second = client.respond(challenge, "POST", "/admin/init")
        assert verifier.verify(second, "POST", "/admin/init")
        # A count at or below the highest accepted one is a replay.
        assert not verifier.verify(first, "POST", "/admin/init")

    def test_reuse_signs_under_the_last_challenge(self, verifier, client):
        assert client.reuse("GET", "/x") is None  # nothing answered yet
        challenge = verifier.challenge()
        assert verifier.verify(client.respond(challenge, "GET", "/x"), "GET", "/x")
        again = client.reuse("GET", "/x")
        assert (again.nonce, again.nc) == (challenge.nonce, "00000002")
        assert verifier.verify(again, "GET", "/x")

    def test_concurrent_verifies_of_one_header_pass_once(self, verifier, client):
        creds = client.respond(verifier.challenge(), "POST", "/admin/init")
        results = []
        start = threading.Barrier(8)

        def attempt():
            start.wait()
            results.append(verifier.verify(creds, "POST", "/admin/init"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=attempt) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [False] * 7 + [True]


def _valid_credentials():
    verifier = DigestVerifier("LinOTP admin area", rng=random.Random(1))
    verifier.add_user("portal", "hunter2")
    creds = DigestClient("portal", "hunter2", rng=random.Random(2)).respond(
        verifier.challenge(), "GET", "/admin/show"
    )
    return verifier, creds


_VALID = _valid_credentials()[1]


#: What a header parser might hand over for one field: text, or no text.
_ANY_VALUE = (
    st.text() | st.none() | st.integers() | st.lists(st.text(max_size=4), max_size=2)
)


def _field(name):
    """A field's valid value or any value at all."""
    return st.just(getattr(_VALID, name)) | _ANY_VALUE


class TestMalformedHeaders:
    """``verify`` is a boundary: whatever values a header parser hands it,
    the answer is a bool, never an exception."""

    @settings(max_examples=300, deadline=None)
    @given(fields=st.fixed_dictionaries(
        {name: _field(name) for name in vars(_VALID)}
    ))
    @example(fields={**vars(_VALID), "response": "é" * 32})  # not ASCII
    @example(fields={**vars(_VALID), "cnonce": "\ud800"})  # a lone surrogate
    @example(fields={**vars(_VALID), "nc": "0x000001"})  # int() would parse it
    @example(fields={**vars(_VALID), "nc": None})  # no count
    @example(fields={**vars(_VALID), "nc": 5})
    @example(fields={**vars(_VALID), "response": 7})
    @example(fields={**vars(_VALID), "username": ["portal"]})  # unhashable
    @example(fields={**vars(_VALID), "uri": ["/admin/show"]})
    def test_verify_answers_any_fields_with_a_bool(self, fields):
        verifier, valid = _valid_credentials()
        creds = DigestCredentials(**fields)
        result = verifier.verify(creds, "GET", "/admin/show")
        assert result is (creds == valid)

    def test_a_signed_list_nonce_is_refused_not_raised(self):
        # Only the password holder can sign it; it is still never a key.
        verifier, valid = _valid_credentials()
        nonce = [valid.nonce]
        response = digest_response(
            ha1("portal", valid.realm, "hunter2"), nonce, valid.nc, valid.cnonce,
            valid.qop, ha2("GET", "/admin/show"),
        )
        creds = DigestCredentials(**{**vars(valid), "nonce": nonce, "response": response})
        assert verifier.verify(creds, "GET", "/admin/show") is False

    @settings(max_examples=100, deadline=None)
    @given(qop=st.sampled_from([None, "", "auth-int", "AUTH", "auth "]) | _ANY_VALUE)
    @example(qop="auth-int")  # claims a body hash it never sent
    @example(qop="")
    @example(qop=5)
    @example(qop=["auth"])
    def test_a_signed_qop_it_never_offered_is_refused(self, qop):
        # The password holder signs over the qop it names; only the offered
        # "auth" verifies (RFC 7616 §3.4), and any other value is a bool.
        verifier, valid = _valid_credentials()
        response = digest_response(
            ha1("portal", valid.realm, "hunter2"), valid.nonce, valid.nc,
            valid.cnonce, qop, ha2("GET", "/admin/show"),
        )
        creds = DigestCredentials(**{**vars(valid), "qop": qop, "response": response})
        assert verifier.verify(creds, "GET", "/admin/show") is (qop == "auth")

    @pytest.mark.parametrize("method", [None, 5, ["GET"]])
    def test_a_request_line_of_the_wrong_type_is_refused(self, method):
        verifier, valid = _valid_credentials()
        assert verifier.verify(valid, method, "/admin/show", {}) is False
        assert verifier.verify(valid, "GET", ["/admin/show"], {}) is False
