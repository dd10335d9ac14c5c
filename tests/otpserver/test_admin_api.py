"""Admin REST API: routes, digest gate, client handshake."""

import dataclasses
import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ProtocolError, ValidationError
from repro.crypto.digest_auth import NONCE_TABLE, DigestClient, ha2
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.admin_api import ROUTE_HA2, ROUTES, AdminAPI, AdminAPIClient
from repro.otpserver.server import OTPServer
from repro.otpserver.tokens import HardTokenBatch


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def server(clock):
    return OTPServer(clock=clock, rng=random.Random(1))


@pytest.fixture
def api(server):
    a = AdminAPI(server, rng=random.Random(2))
    a.add_admin("portal", "s3cret")
    return a


@pytest.fixture
def client(api):
    return AdminAPIClient(api, "portal", "s3cret", rng=random.Random(3))


class TestAuthenticationGate:
    def test_unauthenticated_gets_401_with_challenge(self, api):
        response = api.request("GET", "/admin/show", {"user": "x"})
        assert response.status == 401
        assert response.challenge is not None

    def test_bad_password_rejected(self, api):
        bad = AdminAPIClient(api, "portal", "wrong", rng=random.Random(4))
        with pytest.raises(ProtocolError, match="rejected"):
            bad.call("GET", "/admin/show", {"user": "x"})

    def test_valid_client_succeeds(self, client, server):
        server.enroll_soft("alice")
        body = client.call("GET", "/admin/show", {"user": "alice"})
        assert body["tokens"][0]["type"] == "soft"


def signed(api, method, path):
    """Fresh credentials for one request, answered from a 401's challenge
    with no route table (every request line hashed)."""
    digest = DigestClient("portal", "s3cret", rng=random.Random(6))
    return digest.respond(api.request(method, path).challenge, method, path)


#: Authorization fields of the wrong type, as a header parser might hand
#: them over.
WRONG_FIELDS = [
    ("nc", None), ("nc", 5), ("response", 7), ("username", ["portal"]),
    ("uri", ["/admin/show"]), ("nonce", None),
]


class TestAuthorizationFieldTypes:
    @pytest.mark.parametrize(("name", "value"), WRONG_FIELDS)
    def test_a_wrong_type_is_a_401_with_a_fresh_challenge(self, api, server, name, value):
        server.enroll_soft("alice")
        creds = dataclasses.replace(signed(api, "GET", "/admin/show"), **{name: value})
        response = api.request("GET", "/admin/show", {"user": "alice"}, credentials=creds)
        assert response.status == 401
        assert response.challenge is not None
        assert response.challenge.nonce != creds.nonce


    @pytest.mark.parametrize("qop", ["auth-int", ""])
    def test_a_qop_never_offered_is_a_401_with_a_fresh_challenge(self, api, server, qop):
        # A client that signs over a qop the challenge did not offer claims
        # a protection the server never agreed to: RFC 7616 refuses it.
        server.enroll_soft("alice")
        offered = api.request("GET", "/admin/show").challenge
        edited = dataclasses.replace(offered, qop=qop)
        creds = DigestClient("portal", "s3cret", rng=random.Random(6)).respond(
            edited, "GET", "/admin/show"
        )
        assert creds.qop == qop
        response = api.request("GET", "/admin/show", {"user": "alice"}, credentials=creds)
        assert response.status == 401
        assert response.challenge is not None
        assert response.challenge.nonce != creds.nonce


class TestRouteTable:
    def test_every_route_has_its_ha2(self, api):
        assert set(ROUTE_HA2) == set(ROUTES) == set(api._routes)
        for (method, path), value in ROUTE_HA2.items():
            assert value == ha2(method, path)

    def test_an_unrouted_path_authenticates_then_404s(self, api):
        creds = signed(api, "GET", "/admin/nonexistent")
        response = api.request("GET", "/admin/nonexistent", {}, credentials=creds)
        assert response.status == 404
        assert response.body == {"error": "no route GET /admin/nonexistent"}

    @pytest.mark.parametrize(
        "sent_to", [("GET", "/admin/init"), ("POST", "/admin/remove")],
        ids=["same-path", "same-method"],
    )
    def test_credentials_for_one_route_are_a_401_on_another(self, api, sent_to):
        creds = signed(api, "POST", "/admin/init")
        response = api.request(*sent_to, {"user": "alice"}, credentials=creds)
        assert response.status == 401

    def test_unrouted_requests_do_not_grow_the_table(self, client):
        before = dict(ROUTE_HA2)
        for i in range(100):
            with pytest.raises(ValidationError, match="no route"):
                client.call("GET", f"/admin/unrouted/{i}")
        assert ROUTE_HA2 == before


class TestNonceTable:
    def test_unauthenticated_requests_do_not_grow_it(self, api):
        for _ in range(10_000):
            assert api.request("GET", "/admin/show", {"user": "x"}).status == 401
        assert len(api._verifier._nonces) <= NONCE_TABLE

    def test_an_evicted_nonce_costs_one_extra_401(self, api, client, server):
        server.enroll_soft("alice")
        client.call("GET", "/admin/show", {"user": "alice"})
        for _ in range(NONCE_TABLE):  # newer challenges push the client's out
            api.request("GET", "/admin/show", {"user": "x"})
        before = api.request_count
        body = client.call("GET", "/admin/show", {"user": "alice"})
        assert body["tokens"][0]["type"] == "soft"
        assert api.request_count == before + 2  # refused, challenged, retried
        client.call("GET", "/admin/show", {"user": "alice"})
        assert api.request_count == before + 3


class TestRoutes:
    def test_unknown_route_404(self, api, client):
        with pytest.raises(ValidationError):
            client.call("GET", "/admin/nonexistent", {})

    def test_policy_snapshot(self, client, server):
        body = client.call("GET", "/admin/status", {"section": "policy"})
        assert body == {**server.policy.snapshot(), "concurrency": body["concurrency"]}
        assert body["ladder"]["effective_mode"] == "full"
        assert body["lockout"]["threshold"] == 20
        assert body["exemptions"] == {"configured": False}
        assert body["risk"] == {"configured": False}
        assert body["concurrency"]["lock_stripes"] == 64

    def test_policy_requires_auth(self, api):
        response = api.request("GET", "/admin/status", {"section": "policy"})
        assert response.status == 401

    def test_init_soft(self, client, server):
        body = client.call("POST", "/admin/init", {"user": "alice", "type": "soft"})
        assert "serial" in body and "otpkey" in body
        assert server.has_pairing("alice")

    def test_init_sms(self, client, server):
        body = client.call(
            "POST", "/admin/init", {"user": "carol", "type": "sms", "phone": "5125551234"}
        )
        assert body["serial"].startswith("LSSM")

    def test_init_hard(self, client, server):
        batch = HardTokenBatch(3, rng=random.Random(5))
        server.import_hard_batch(batch)
        serial = batch.serials()[0]
        body = client.call(
            "POST", "/admin/init", {"user": "dave", "type": "hard", "serial": serial}
        )
        assert body["serial"] == serial

    def test_init_static(self, client, server):
        client.call("POST", "/admin/init", {"user": "tr", "type": "static", "otpkey": "123456"})
        assert server.validate("tr", "123456").ok

    def test_init_unknown_type(self, client):
        with pytest.raises(ValidationError, match="unknown token type"):
            client.call("POST", "/admin/init", {"user": "x", "type": "retina"})

    def test_missing_parameter(self, client):
        with pytest.raises(ValidationError, match="missing required parameter"):
            client.call("POST", "/admin/init", {"type": "soft"})

    def test_remove(self, client, server):
        server.enroll_soft("alice")
        body = client.call("POST", "/admin/remove", {"user": "alice"})
        assert body["removed"] == 1
        assert not server.has_pairing("alice")

    def test_reset(self, client, server):
        server.enroll_soft("alice")
        for _ in range(20):
            server.validate("alice", "000000")
        body = client.call("POST", "/admin/reset", {"user": "alice"})
        assert body["cleared"] == 1
        assert not server.is_locked("alice")

    def test_resync(self, client, server, clock):
        _, secret = server.enroll_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock, skew=3000)
        body = client.call(
            "POST",
            "/admin/resync",
            {"user": "alice", "otp1": device.current_code(),
             "otp2": device.code_at(clock.now() + 30)},
        )
        assert body["resynced"] is True

    def test_validate_check(self, client, server, clock):
        _, secret = server.enroll_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        body = client.call(
            "POST", "/validate/check", {"user": "alice", "pass": device.current_code()}
        )
        assert body["status"] == "ok"

    def test_validate_check_null_triggers_sms(self, client, server, clock):
        server.enroll_sms("carol", "5125551234")
        body = client.call("POST", "/validate/check", {"user": "carol"})
        assert body["status"] == "challenge_sent"

    def test_request_counter(self, api, client, server):
        server.enroll_soft("alice")
        before = api.request_count
        client.call("GET", "/admin/show", {"user": "alice"})
        # The first call: one 401 challenge round plus the authenticated request.
        assert api.request_count == before + 2
        client.call("GET", "/admin/show", {"user": "alice"})
        # Later calls sign under the same nonce with the next count: one request.
        assert api.request_count == before + 3


class TestRequestBody:
    @pytest.mark.parametrize("body", [["user"], "user", 5], ids=["list", "str", "int"])
    def test_a_body_that_is_not_an_object_is_a_400(self, api, server, body):
        creds = signed(api, "POST", "/admin/init")
        response = api.request("POST", "/admin/init", body, credentials=creds)
        assert response.status == 400
        assert response.body == {"error": "request body must be an object"}
        assert server.user_tokens("user") == []

    def test_no_body_is_an_empty_object(self, api):
        creds = signed(api, "POST", "/admin/init")
        response = api.request("POST", "/admin/init", None, credentials=creds)
        assert response.body == {"error": "missing required parameter 'user'"}


#: Every parameter a route reads, with a request that is valid apart from it:
#: ``(method, path, params, the parameter under test)``.
TYPED_PARAMETERS = [
    ("POST", "/admin/init", {"user": "alice", "type": "soft"}, "user"),
    ("POST", "/admin/init", {"user": "alice", "type": "soft"}, "type"),
    ("POST", "/admin/init", {"user": "carol", "type": "sms", "phone": "5125551234"}, "phone"),
    ("POST", "/admin/init", {"user": "dave", "type": "hard", "serial": "LSHW0001"}, "serial"),
    ("POST", "/admin/init", {"user": "tr", "type": "static", "otpkey": "123456"}, "otpkey"),
    ("POST", "/admin/init", {"user": "v", "type": "federated", "principal": "v@home"}, "principal"),
    ("POST", "/admin/init", {"user": "v", "type": "federated", "principal": "v@home"}, "otpkey"),
    ("POST", "/admin/remove", {"user": "alice"}, "user"),
    ("POST", "/admin/resync", {"user": "alice", "otp1": "1", "otp2": "2"}, "user"),
    ("POST", "/admin/resync", {"user": "alice", "otp1": "1", "otp2": "2"}, "otp1"),
    ("POST", "/admin/resync", {"user": "alice", "otp1": "1", "otp2": "2"}, "otp2"),
    ("POST", "/admin/reset", {"user": "alice"}, "user"),
    ("GET", "/admin/show", {"user": "alice"}, "user"),
    ("POST", "/validate/check", {"user": "alice", "pass": "123456"}, "user"),
    ("POST", "/validate/check", {"user": "alice", "pass": "123456"}, "pass"),
]  # fmt: skip

WRONG_TYPES = {"int": 5, "list": ["alice"], "dict": {"name": "alice"}, "bytes": b"alice"}


class TestParameterTypes:
    """A parameter of the wrong type is a 400 naming it, on every route: a
    list ``user`` used to raise ``TypeError`` out of ``request`` and an int
    one to enroll a token under the uid ``5``."""

    @pytest.mark.parametrize("kind", list(WRONG_TYPES))
    @pytest.mark.parametrize(
        ("method", "path", "params", "key"),
        TYPED_PARAMETERS,
        ids=[f"{path.rsplit('/', 1)[1]}-{params.get('type', '')}-{key}".replace("--", "-")
             for _, path, params, key in TYPED_PARAMETERS],
    )
    def test_wrong_type_is_a_400_naming_the_parameter(
        self, api, server, method, path, params, key, kind
    ):
        server.enroll_soft("alice")
        before = server.user_tokens(5)
        digest = DigestClient("portal", "s3cret", rng=random.Random(6))
        bad = {**params, key: WRONG_TYPES[kind]}
        challenge = api.request(method, path, bad).challenge
        response = api.request(
            method, path, bad, credentials=digest.respond(challenge, method, path)
        )
        assert response.status == 400
        assert response.body == {"error": f"parameter {key!r} must be a string"}
        assert server.user_tokens(5) == before == []
