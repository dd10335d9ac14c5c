"""The two seams on a deployment: ``radius_backend.validate`` is the
synchronous one, ``ingest_queue.submit`` the deferred one; plus the
:class:`Ticket` semantics both rest on.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.otpserver import OTPServer, Ticket
from repro.ssh import SSHClient


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def otp(clock):
    server = OTPServer(clock=clock, rng=random.Random(1))
    for i in range(3):
        server.enroll_static(f"user{i}", "424242")
    return server


@pytest.fixture
def center(clock):
    center = MFACenter(clock=clock, rng=random.Random(2))
    center.add_system("stampede", mode="full")
    return center


class TestTicket:
    def test_resolve_then_result(self):
        ticket = Ticket()
        assert not ticket.done()
        ticket.resolve(41 + 1)
        assert ticket.result() == 42

    def test_unresolved_result_times_out(self):
        with pytest.raises(TimeoutError):
            Ticket().result(timeout=0.01)

    def test_drain_hook_pumps_on_result(self):
        ticket = Ticket(drain=lambda t: t.resolve("pumped"))
        assert ticket.result(timeout=0.1) == "pumped"


class TestIngestDeployment:
    def test_center_with_ingest_wraps_backend(self, clock):
        center = MFACenter(clock=clock, rng=random.Random(3), ingest=True)
        center.add_system("stampede", mode="full")
        assert center.radius_backend is center.ingest_queue is not None
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        assert center.radius_backend.validate("alice", code).ok
        assert center.ingest_queue.snapshot()["completed_total"] == 1

    def test_ssh_login_validates_through_the_queue(self, clock, monkeypatch):
        """The queue is the RADIUS farm's back end: a password + token SSH
        login reaches ``IngestQueue.validate`` once, with the login name."""
        center = MFACenter(clock=clock, rng=random.Random(3), ingest=True)
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        queue = center.ingest_queue
        calls = []
        validate = queue.validate
        monkeypatch.setattr(
            queue, "validate", lambda *a: calls.append(a) or validate(*a)
        )
        result, _ = SSHClient("198.51.100.7").connect(
            system.login_node(), "alice", password="pw", token=code
        )
        assert result.success
        assert calls == [("alice", code)]
        assert queue.snapshot()["classes"]["interactive"]["completed"] == 1

    def test_submit_many_resolves_usernames(self, clock):
        """Deferred work takes login names too: the queue's runner is the
        same ``otp.validate`` the synchronous seam reaches."""
        center = MFACenter(clock=clock, rng=random.Random(2), ingest=True)
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        tickets = [
            center.ingest_queue.submit(request)
            for request in (("alice", code), ("alice", "999999"), ("ghost", code))
        ]
        assert tickets[0].result().ok
        assert not tickets[1].result().ok
        assert tickets[2].result().reason == "unknown user"

    def test_source_address_survives_the_queue(self, clock, monkeypatch):
        """``IngestQueue.validate`` forwards ``source``; whatever the
        queue runs must take it through to the policy request."""
        center = MFACenter(clock=clock, rng=random.Random(3), ingest=True)
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        seen = []
        evaluate = center.policy.evaluate

        def recording(request, now=None):
            seen.append(request.source_ip)
            return evaluate(request, now=now)

        monkeypatch.setattr(center.policy, "evaluate", recording)
        result = center.radius_backend.validate("alice", code, "198.51.100.7")
        assert result.ok, result.reason
        assert seen == ["198.51.100.7"]

    def test_queue_runner_is_late_bound(self, clock, monkeypatch):
        """Instrumentation hangs a proxy on ``otp.validate`` after the
        center is built; queued requests must go through it."""
        center = MFACenter(clock=clock, rng=random.Random(3), ingest=True)
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        calls = []
        validate = center.otp.validate
        monkeypatch.setattr(
            center.otp, "validate", lambda *a: calls.append(a) or validate(*a)
        )
        assert center.radius_backend.validate("alice", code).ok
        assert calls == [("alice", code)]

    def test_center_without_ingest_has_no_queue(self, center):
        assert center.ingest_queue is None

    def test_admin_queue_route(self, clock):
        from repro.otpserver.admin_api import AdminAPI, AdminAPIClient

        center = MFACenter(clock=clock, rng=random.Random(4), ingest=True)
        center.add_system("stampede", mode="full")
        api = AdminAPI(center.otp, rng=random.Random(5))
        api.add_admin("portal", "portal-secret")
        client = AdminAPIClient(api, "portal", "portal-secret", rng=random.Random(6))
        center.create_user("alice", password="pw")
        code = center.pair_training("alice")
        center.radius_backend.validate("alice", code)
        body = client.call("GET", "/admin/status", {"section": "queue"})
        assert body == center.ingest_queue.snapshot()
        assert body == client.call("GET", "/admin/status")["queue"]
        assert body["configured"] is True
        assert body["completed_total"] == 1
        assert set(body["classes"]) == {"interactive", "sms", "batch"}

    def test_admin_queue_route_unconfigured(self, otp):
        """No queue in front of the server: no section (a 404), not a stub."""
        from repro.common.errors import ValidationError
        from repro.otpserver.admin_api import AdminAPI, AdminAPIClient

        api = AdminAPI(otp, rng=random.Random(7))
        api.add_admin("portal", "portal-secret")
        client = AdminAPIClient(api, "portal", "portal-secret", rng=random.Random(8))
        assert "queue" not in client.call("GET", "/admin/status")
        with pytest.raises(ValidationError, match="no status section 'queue'"):
            client.call("GET", "/admin/status", {"section": "queue"})
