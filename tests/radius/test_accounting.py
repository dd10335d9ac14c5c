"""RADIUS accounting (RFC 2866): authenticators, sessions, duplicates."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ProtocolError
from repro.radius.accounting import (
    AccountingClient,
    AccountingServer,
    encode_accounting_request,
    verify_accounting_request,
)
from repro.radius.dictionary import AcctStatusType, Attr, PacketCode
from repro.radius.packet import RADIUSPacket
from repro.radius.server import DUPLICATE_WINDOW
from repro.radius.transport import UDPFabric

SECRET = b"acct-secret"


@pytest.fixture
def clock():
    return VirtualClock(1_000_000.0)


@pytest.fixture
def rig(clock):
    fabric = UDPFabric(rng=random.Random(1))
    server = AccountingServer("10.0.0.99:1813", fabric, SECRET, clock=clock)
    client = AccountingClient(fabric, server.address, SECRET, "login1.stampede")

    class Rig:
        pass

    r = Rig()
    r.fabric, r.server, r.client, r.clock = fabric, server, client, clock
    return r


class TestWireFormat:
    def make_request(self):
        packet = RADIUSPacket(PacketCode.ACCOUNTING_REQUEST, 7)
        packet.add(Attr.USER_NAME, "alice")
        packet.add(Attr.ACCT_SESSION_ID, "sess-1")
        packet.add(Attr.ACCT_STATUS_TYPE, int(AcctStatusType.START).to_bytes(4, "big"))
        return packet

    def test_round_trip(self):
        wire = encode_accounting_request(self.make_request(), SECRET)
        verified = verify_accounting_request(wire, SECRET)
        assert verified.get_str(Attr.USER_NAME) == "alice"

    def test_wrong_secret_rejected(self):
        wire = encode_accounting_request(self.make_request(), SECRET)
        with pytest.raises(ProtocolError, match="authenticator"):
            verify_accounting_request(wire, b"wrong")

    def test_tampered_rejected(self):
        wire = bytearray(encode_accounting_request(self.make_request(), SECRET))
        wire[-1] ^= 0x01
        with pytest.raises(ProtocolError):
            verify_accounting_request(bytes(wire), SECRET)

    def test_access_request_rejected(self):
        packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 1)
        with pytest.raises(ProtocolError):
            encode_accounting_request(packet, SECRET)


class TestSessions:
    def test_start_stop_lifecycle(self, rig):
        assert rig.client.start("alice", "sess-1")
        assert len(rig.server.open_sessions()) == 1
        rig.clock.advance(3600)
        assert rig.client.stop("alice", "sess-1", session_time=3600)
        record = rig.server.sessions["sess-1"]
        assert not record.open
        assert record.session_time == 3600

    def test_session_time_derived_when_missing(self, rig):
        rig.client.start("alice", "sess-2")
        rig.clock.advance(120)
        packet = RADIUSPacket(PacketCode.ACCOUNTING_REQUEST, 99)
        packet.add(Attr.USER_NAME, "alice")
        packet.add(Attr.ACCT_SESSION_ID, "sess-2")
        packet.add(Attr.ACCT_STATUS_TYPE, int(AcctStatusType.STOP).to_bytes(4, "big"))
        rig.fabric.send_request(
            rig.server.address, encode_accounting_request(packet, SECRET)
        )
        assert rig.server.sessions["sess-2"].session_time == 120

    def test_per_user_query(self, rig):
        rig.client.start("alice", "s1")
        rig.client.start("bob", "s2")
        rig.client.start("alice", "s3")
        assert len(rig.server.sessions_for("alice")) == 2
        assert rig.server.total_sessions() == 3

    def test_retransmit_deduplicated(self, rig):
        packet = RADIUSPacket(PacketCode.ACCOUNTING_REQUEST, 5)
        packet.add(Attr.USER_NAME, "alice")
        packet.add(Attr.ACCT_SESSION_ID, "dup-1")
        packet.add(Attr.ACCT_STATUS_TYPE, int(AcctStatusType.START).to_bytes(4, "big"))
        wire = encode_accounting_request(packet, SECRET)
        assert rig.fabric.send_request(rig.server.address, wire, "nas") is not None
        assert rig.fabric.send_request(rig.server.address, wire, "nas") is not None
        assert rig.server.duplicates == 1
        assert rig.server.total_sessions() == 1

    def test_dedup_ledger_is_bounded_by_the_duplicate_window(self, rig):
        """One remembered request per Accounting-Request, oldest forgotten
        first: the ledger stops at the window instead of growing forever."""

        def record(n):
            packet = RADIUSPacket(PacketCode.ACCOUNTING_REQUEST, n % 256)
            packet.add(Attr.USER_NAME, "alice")
            packet.add(Attr.ACCT_SESSION_ID, f"s{n}")
            packet.add(Attr.ACCT_STATUS_TYPE, int(AcctStatusType.START).to_bytes(4, "big"))
            return encode_accounting_request(packet, SECRET)

        for n in range(DUPLICATE_WINDOW + 1):
            assert rig.server.handle_datagram(record(n), "nas") is not None
        assert len(rig.server._seen) == DUPLICATE_WINDOW
        assert rig.server.total_sessions() == DUPLICATE_WINDOW + 1
        # A retransmission of a request still inside the window is answered
        # and counted, and applied once.
        rig.clock.advance(60)
        assert rig.server.handle_datagram(record(DUPLICATE_WINDOW), "nas") is not None
        assert rig.server.duplicates == 1
        assert rig.server.sessions[f"s{DUPLICATE_WINDOW}"].started_at == 1_000_000.0

    def test_lossy_fabric_retries(self, clock):
        fabric = UDPFabric(loss_rate=0.4, rng=random.Random(3))
        server = AccountingServer("10.0.0.98:1813", fabric, SECRET, clock=clock)
        client = AccountingClient(fabric, server.address, SECRET, "login1")
        acked = sum(1 for i in range(50) if client.start("alice", f"s{i}"))
        assert acked >= 40

    def test_wrong_secret_silently_dropped(self, rig):
        liar = AccountingClient(rig.fabric, rig.server.address, b"wrong", "nas")
        assert not liar.start("alice", "evil-1")
        assert rig.server.total_sessions() == 0
