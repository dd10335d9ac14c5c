"""RADIUS server + client: verdicts, challenges, load balancing, failover."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ConfigurationError
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.server import OTPServer
from repro.radius import client as client_module
from repro.radius.client import AuthStatus, RADIUSClient
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


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def otp(clock):
    return OTPServer(clock=clock, rng=random.Random(1))


@pytest.fixture
def fabric():
    return UDPFabric(rng=random.Random(2))


@pytest.fixture
def farm(fabric, otp):
    servers = []
    for i in range(3):
        server = RADIUSServer(f"10.0.1.{i}:1812", fabric, otp, name=f"rad{i}")
        server.add_client("129.114.", SECRET)
        servers.append(server)
    return servers


@pytest.fixture
def client(fabric, farm):
    return RADIUSClient(
        fabric, [s.address for s in farm], SECRET, NAS, rng=random.Random(3)
    )


def soft_device(otp, clock, user="alice"):
    _, secret = otp.enroll_soft(user)
    return TOTPGenerator(secret=secret, clock=clock)


class TestVerdicts:
    def test_accept(self, client, otp, clock):
        device = soft_device(otp, clock)
        response = client.authenticate("alice", device.current_code())
        assert response.ok and response.status is AuthStatus.ACCEPT

    def test_reject_wrong_code(self, client, otp, clock):
        soft_device(otp, clock)
        response = client.authenticate("alice", "000000")
        assert response.status is AuthStatus.REJECT
        assert "invalid" in response.message

    def test_reject_no_pairing(self, client):
        response = client.authenticate("nobody", "123456")
        assert response.status is AuthStatus.REJECT
        assert "no MFA device pairing" in response.message

    def test_locked_message(self, client, otp, clock):
        soft_device(otp, clock)
        for _ in range(20):
            client.authenticate("alice", "000000")
        response = client.authenticate("alice", "111111")
        assert response.status is AuthStatus.REJECT
        assert "deactivated" in response.message


class TestSMSChallenge:
    def test_null_request_challenges(self, client, otp, clock):
        otp.enroll_sms("carol", "5125551234")
        response = client.authenticate("carol", "")
        assert response.status is AuthStatus.CHALLENGE
        assert response.state is not None
        assert "sent" in response.message

    def test_already_sent_message(self, client, otp):
        otp.enroll_sms("carol", "5125551234")
        client.authenticate("carol", "")
        response = client.authenticate("carol", "")
        assert response.status is AuthStatus.CHALLENGE
        assert "already been sent" in response.message

    def test_challenge_completion(self, client, otp, clock):
        otp.enroll_sms("carol", "5125551234")
        challenge = client.authenticate("carol", "")
        clock.advance(10)
        code = otp.sms.latest("5125551234").body.split()[-1]
        response = client.authenticate("carol", code, state=challenge.state)
        assert response.ok


class TestClientSecurity:
    def test_unknown_nas_ignored(self, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        stranger = RADIUSClient(
            fabric, [farm[0].address], SECRET, "203.0.113.9", rng=random.Random(4)
        )
        response = stranger.authenticate("alice", device.current_code())
        assert response.status is AuthStatus.TIMEOUT
        assert farm[0].rejected_clients > 0

    def test_wrong_shared_secret_fails(self, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        liar = RADIUSClient(
            fabric, [farm[0].address], b"wrong", NAS, rng=random.Random(5)
        )
        response = liar.authenticate("alice", device.current_code())
        assert response.status in (AuthStatus.TIMEOUT, AuthStatus.REJECT)
        assert not response.ok

    def test_prefix_client_match(self, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        other_node = RADIUSClient(
            fabric, [farm[0].address], SECRET, "129.114.77.5", rng=random.Random(6)
        )
        assert other_node.authenticate("alice", device.current_code()).ok


def raw_request(
    identifier=1, username="alice", code="424242", secret=SECRET, proxy_states=()
):
    authenticator = bytes([identifier]) * 16
    request = RADIUSPacket(PacketCode.ACCESS_REQUEST, identifier, authenticator)
    if username is not None:
        request.add(Attr.USER_NAME, username)
    if code is not None:
        request.add(Attr.USER_PASSWORD, hide_password(code, secret, authenticator))
    for state in proxy_states:
        request.add(Attr.PROXY_STATE, state)
    return encode_packet(request, secret)


NOT_A_REQUEST = encode_packet(
    RADIUSPacket(PacketCode.ACCESS_ACCEPT, 7, bytes(16)), SECRET, bytes(16)
)


class TestReceivePath:
    """Every way ``handle_datagram`` refuses to reach the back end."""

    @pytest.mark.parametrize(
        "datagram, source, handled",
        [
            (raw_request(), "203.0.113.9", 0),  # unknown client
            (b"garbage", NAS, 0),  # undecodable
            (NOT_A_REQUEST, NAS, 0),
            # Hidden under another secret, the password decrypts to bytes
            # that are not text: counted as a request, never answered.
            (raw_request(secret=b"wrong"), NAS, 1),
        ],
        ids=["unknown-client", "undecodable", "not-access-request", "wrong-secret"],
    )
    def test_silent_drops(self, farm, otp, datagram, source, handled):
        otp.enroll_static("alice", "424242")
        server = farm[0]
        assert server.handle_datagram(datagram, source) is None
        assert server.handled == handled
        assert server.rejected_clients == (1 if source != NAS else 0)
        assert otp.validate_requests == 0

    def test_a_padded_request_is_answered_as_the_unpadded_one(self, farm, otp):
        otp.enroll_static("alice", "424242")
        wire = farm[0].handle_datagram(raw_request() + b"\x00" * 7, NAS)
        assert decode_packet(wire).code == PacketCode.ACCESS_ACCEPT

    def test_a_request_longer_than_4096_octets_is_dropped_unvalidated(self, farm, otp):
        otp.enroll_static("alice", "424242")
        hops = (bytes((Attr.PROXY_STATE, 255)) + b"p" * 253) * 17
        wire = raw_request() + hops  # its Length field names every octet
        wire = wire[:2] + len(wire).to_bytes(2, "big") + wire[4:]
        assert len(wire) > 4096
        assert farm[0].handle_datagram(wire, NAS) is None
        assert otp.validate_requests == 0

    def test_missing_user_name_is_rejected_without_validating(self, farm, otp):
        wire = farm[0].handle_datagram(raw_request(9, username=None), NAS)
        response = decode_packet(wire)
        assert (response.code, response.identifier) == (PacketCode.ACCESS_REJECT, 9)
        assert otp.validate_requests == 0

    def test_missing_user_name_reject_echoes_every_proxy_state(self, farm):
        # RFC 2865 section 5.33: every reply carries each Proxy-State of its
        # request unmodified and in order, the early reject included.
        hops = [b"hop-1", b"hop-2"]
        wire = farm[0].handle_datagram(
            raw_request(9, username=None, proxy_states=hops), NAS
        )
        response = decode_packet(wire)
        assert response.code == PacketCode.ACCESS_REJECT
        assert response.get_all(Attr.PROXY_STATE) == hops

    def test_duplicate_is_replayed_not_revalidated(self, farm, otp):
        otp.enroll_static("alice", "424242")
        server, wire = farm[0], raw_request()
        first = server.handle_datagram(wire, NAS)
        assert decode_packet(first).code == PacketCode.ACCESS_ACCEPT
        assert server.handle_datagram(wire, NAS) == first
        assert (server.handled, server.duplicates_replayed) == (1, 1)
        assert otp.validate_requests == 1


class TestLoadBalancingAndFailover:
    def test_round_robin_spreads_load(self, client, farm, otp, clock):
        device = soft_device(otp, clock)
        for _ in range(30):
            clock.advance(31)
            client.authenticate("alice", device.current_code())
        handled = [s.handled for s in farm]
        assert all(h >= 5 for h in handled), handled

    def test_failover_on_outage(self, client, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        fabric.set_down(farm[0].address)
        fabric.set_down(farm[1].address)
        response = client.authenticate("alice", device.current_code())
        assert response.ok
        assert response.server == farm[2].address

    def test_all_down_times_out(self, client, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        for server in farm:
            fabric.set_down(server.address)
        response = client.authenticate("alice", device.current_code())
        assert response.status is AuthStatus.TIMEOUT

    def test_recovery_after_outage(self, client, fabric, farm, otp, clock):
        device = soft_device(otp, clock)
        for server in farm:
            fabric.set_down(server.address)
        client.authenticate("alice", device.current_code())
        for server in farm:
            fabric.set_down(server.address, False)
        clock.advance(31)
        assert client.authenticate("alice", device.current_code()).ok

    def test_empty_server_list_rejected(self, fabric):
        with pytest.raises(ConfigurationError):
            RADIUSClient(fabric, [], SECRET, NAS)



class TestDuplicateDetection:
    def test_lost_response_replayed_from_cache(self, clock, otp):
        """RFC 5080: a retransmit must not re-consume the one-time code."""

        class FlakyFabric(UDPFabric):
            """Drops the first response, delivers the retransmit's."""

            def __init__(self):
                super().__init__(rng=random.Random(7))
                self.drop_next_response = True

            def send_request(self, address, datagram, source=""):
                response = super().send_request(address, datagram, source)
                if response is not None and self.drop_next_response:
                    self.drop_next_response = False
                    return None
                return response

        fabric = FlakyFabric()
        server = RADIUSServer("10.0.1.9:1812", fabric, otp)
        server.add_client("129.114.", SECRET)
        client = RADIUSClient(
            fabric, [server.address], SECRET, NAS, rng=random.Random(8)
        )
        device = soft_device(otp, clock)
        response = client.authenticate("alice", device.current_code())
        assert response.ok
        assert server.duplicates_replayed == 1

    def test_lossy_fabric_high_success(self, clock, otp, monkeypatch):
        monkeypatch.setattr(client_module, "RETRIES", 4)
        fabric = UDPFabric(loss_rate=0.3, rng=random.Random(9))
        servers = []
        for i in range(2):
            s = RADIUSServer(f"10.0.2.{i}:1812", fabric, otp)
            s.add_client("129.114.", SECRET)
            servers.append(s)
        client = RADIUSClient(
            fabric, [s.address for s in servers], SECRET, NAS, rng=random.Random(10)
        )
        device = soft_device(otp, clock, "bob")
        successes = 0
        for _ in range(40):
            clock.advance(31)
            if client.authenticate("bob", device.current_code()).ok:
                successes += 1
        assert successes >= 36


class TestResponseIdentifierCheck:
    def test_mismatched_identifier_treated_as_timeout(self, clock, otp, monkeypatch):
        """A response whose identifier doesn't match the request is not
        accepted even with a valid authenticator for those bytes."""
        from repro.radius.packet import (
            RADIUSPacket, decode_packet, encode_packet,
        )
        from repro.radius.dictionary import PacketCode

        fabric = UDPFabric(rng=random.Random(30))

        def confused_server(datagram, source):
            request = decode_packet(datagram)
            response = RADIUSPacket(
                PacketCode.ACCESS_ACCEPT, (request.identifier + 1) % 256
            )
            return encode_packet(response, SECRET, request.authenticator)

        fabric.register("10.0.5.1:1812", confused_server)
        monkeypatch.setattr(client_module, "RETRIES", 2)
        client = RADIUSClient(
            fabric, ["10.0.5.1:1812"], SECRET, NAS, rng=random.Random(31)
        )
        response = client.authenticate("alice", "123456")
        assert response.status is AuthStatus.TIMEOUT
