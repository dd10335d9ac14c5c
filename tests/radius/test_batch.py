"""RADIUSServer.handle_batch: burst draining over the batched back end."""

import random

import pytest

from repro.common.clock import SimulatedClock
from repro.common.results import ValidateResult, ValidateStatus
from repro.otpserver.server import OTPServer
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    hide_password,
)
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric

SECRET = b"radius-shared-secret"
NAS = "129.114.0.10"


def make_request(identifier, username, code, secret=SECRET):
    authenticator = bytes([identifier]) * 16
    request = RADIUSPacket(PacketCode.ACCESS_REQUEST, identifier, authenticator)
    request.add(Attr.USER_NAME, username)
    if code is not None:
        request.add(Attr.USER_PASSWORD, hide_password(code, secret, authenticator))
    return encode_packet(request, secret)


def reply_code(wire, identifier):
    response = decode_packet(wire)
    assert response.identifier == identifier
    return response.code


@pytest.fixture
def clock():
    return SimulatedClock.at("2016-10-05T09:00:00")


@pytest.fixture
def otp(clock):
    server = OTPServer(clock=clock, rng=random.Random(1))
    for i in range(4):
        server.enroll_static(f"user{i}", "424242")
    return server


@pytest.fixture
def server(otp):
    fabric = UDPFabric(rng=random.Random(2))
    server = RADIUSServer("10.0.1.1:1812", fabric, otp, name="rad-batch")
    server.add_client("129.114.", SECRET)
    return server


class TestHandleBatch:
    def test_verdicts_are_positional(self, server):
        datagrams = [
            (make_request(1, "user0", "424242"), NAS),
            (make_request(2, "user1", "999999"), NAS),
            (make_request(3, "nobody", "424242"), NAS),
        ]
        responses = server.handle_batch(datagrams)
        assert reply_code(responses[0], 1) == PacketCode.ACCESS_ACCEPT
        assert reply_code(responses[1], 2) == PacketCode.ACCESS_REJECT
        assert reply_code(responses[2], 3) == PacketCode.ACCESS_REJECT
        assert server.handled == 3

    def test_batch_matches_sequential_verdicts(self, server, otp):
        batch = server.handle_batch(
            [(make_request(i + 1, f"user{i}", "424242"), NAS) for i in range(4)]
        )
        sequential = [
            server.handle_datagram(make_request(i + 10, f"user{i}", "424242"), NAS)
            for i in range(4)
        ]
        for i, (a, b) in enumerate(zip(batch, sequential)):
            assert reply_code(a, i + 1) == reply_code(b, i + 10)

    def test_unknown_client_dropped_in_place(self, server):
        responses = server.handle_batch(
            [
                (make_request(1, "user0", "424242"), "203.0.113.9"),
                (make_request(2, "user1", "424242"), NAS),
            ]
        )
        assert responses[0] is None
        assert reply_code(responses[1], 2) == PacketCode.ACCESS_ACCEPT
        assert server.rejected_clients == 1

    def test_undecodable_and_wrong_code_dropped(self, server):
        not_access = RADIUSPacket(PacketCode.ACCESS_ACCEPT, 7, bytes(16))
        responses = server.handle_batch(
            [
                (b"garbage", NAS),
                (encode_packet(not_access, SECRET, bytes(16)), NAS),
                (make_request(2, "user0", "424242"), NAS),
            ]
        )
        assert responses[0] is None and responses[1] is None
        assert reply_code(responses[2], 2) == PacketCode.ACCESS_ACCEPT

    def test_missing_username_rejected(self, server):
        authenticator = bytes([9]) * 16
        request = RADIUSPacket(PacketCode.ACCESS_REQUEST, 9, authenticator)
        request.add(Attr.USER_PASSWORD, hide_password("x", SECRET, authenticator))
        responses = server.handle_batch([(encode_packet(request, SECRET), NAS)])
        assert reply_code(responses[0], 9) == PacketCode.ACCESS_REJECT

    def test_duplicate_within_batch_replayed_not_revalidated(self, server, otp):
        wire = make_request(1, "user0", "424242")
        responses = server.handle_batch([(wire, NAS), (wire, NAS)])
        assert responses[0] == responses[1]
        assert server.duplicates_replayed == 1
        assert server.handled == 1

    def test_duplicate_of_earlier_datagram_served_from_cache(self, server):
        wire = make_request(1, "user0", "424242")
        first = server.handle_datagram(wire, NAS)
        responses = server.handle_batch([(wire, NAS)])
        assert responses[0] == first
        assert server.duplicates_replayed == 1

    def test_batch_responses_land_in_dup_cache(self, server):
        wire = make_request(1, "user0", "424242")
        (response,) = server.handle_batch([(wire, NAS)])
        assert server.handle_datagram(wire, NAS) == response
        assert server.duplicates_replayed == 1

    def test_uses_submit_api_when_offered(self, clock):
        from repro.common.results import Ticket

        class BatchingBackend:
            def __init__(self):
                self.batch_calls = 0
                self.single_calls = 0

            def validate(self, user, code):
                self.single_calls += 1
                return ValidateResult(ValidateStatus.OK)

            def submit(self, request):
                self.single_calls += 1
                return Ticket.completed(ValidateResult(ValidateStatus.OK))

            def submit_many(self, requests):
                self.batch_calls += 1
                return [
                    Ticket.completed(ValidateResult(ValidateStatus.OK))
                    for _ in requests
                ]

        backend = BatchingBackend()
        fabric = UDPFabric(rng=random.Random(3))
        server = RADIUSServer("10.0.1.2:1812", fabric, backend, name="rad-b")
        server.add_client("129.114.", SECRET)
        server.handle_batch(
            [(make_request(i + 1, f"user{i}", "424242"), NAS) for i in range(3)]
        )
        assert backend.batch_calls == 1
        assert backend.single_calls == 0
        # A single surviving request skips the batch machinery.
        server.handle_batch([(make_request(9, "user9", "424242"), NAS)])
        assert backend.batch_calls == 1
        assert backend.single_calls == 1

    def test_legacy_validate_many_backend_falls_back_to_singles(self, clock):
        # Duck-typed validate_many discovery is gone: a backend that never
        # adopted SubmitAPI still works, one validate() per request.
        class LegacyBackend:
            def __init__(self):
                self.batch_calls = 0
                self.single_calls = 0

            def validate(self, user, code):
                self.single_calls += 1
                return ValidateResult(ValidateStatus.OK)

            def validate_many(self, requests):
                self.batch_calls += 1
                return [ValidateResult(ValidateStatus.OK) for _ in requests]

        backend = LegacyBackend()
        fabric = UDPFabric(rng=random.Random(4))
        server = RADIUSServer("10.0.1.3:1812", fabric, backend, name="rad-c")
        server.add_client("129.114.", SECRET)
        responses = server.handle_batch(
            [(make_request(i + 1, f"user{i}", "424242"), NAS) for i in range(3)]
        )
        assert len(responses) == 3
        assert backend.batch_calls == 0
        assert backend.single_calls == 3

    def test_empty_batch(self, server):
        assert server.handle_batch([]) == []
