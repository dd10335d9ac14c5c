"""Admin REST API: routes, digest gate, client handshake."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ProtocolError, ValidationError
from repro.crypto.digest_auth import NONCE_TABLE
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
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
