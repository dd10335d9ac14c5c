"""RADIUS accounting (RFC 2866).

FreeRADIUS deployments pair the authentication port with an accounting
port so that session start/stop records flow to the same middleware; the
center's "over half a million successful log ins" figure is exactly the
kind of number an accounting log answers.  This module adds:

* request/response authenticator rules for Accounting-Request packets
  (the request authenticator is an MD5 over the packet with a zero
  placeholder — unlike Access-Requests it is *not* random);
* :class:`AccountingServer` — collects session records keyed by
  Acct-Session-Id, tolerating retransmitted duplicates;
* :class:`AccountingClient` — emits Start/Stop/Interim records.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.cache import MISSING, BoundedCache
from repro.common.clock import Clock, WallClock
from repro.common.errors import ProtocolError
from repro.radius.dictionary import AcctStatusType, Attr, PacketCode
from repro.radius.packet import (
    HEADER,
    RADIUSPacket,
    _attr_bytes,
    decode_packet,
    encode_packet,
    response_authenticator,
)
from repro.radius.server import DUPLICATE_WINDOW
from repro.radius.transport import UDPFabric


def accounting_request_authenticator(
    code: int, identifier: int, attributes, secret: bytes
) -> bytes:
    """RFC 2866 section 3: MD5 over the packet with a zeroed authenticator —
    the response digest of RFC 2865 with sixteen zero octets for the nonce."""
    return response_authenticator(code, identifier, attributes, b"\x00" * 16, secret)


def encode_accounting_request(packet: RADIUSPacket, secret: bytes) -> bytes:
    """Serialize an Accounting-Request with its computed authenticator."""
    if packet.code != PacketCode.ACCOUNTING_REQUEST:
        raise ProtocolError("not an Accounting-Request")
    packet.authenticator = accounting_request_authenticator(
        packet.code, packet.identifier, packet.attributes, secret
    )
    return encode_packet_raw(packet)


def encode_packet_raw(packet: RADIUSPacket) -> bytes:
    attrs = _attr_bytes(packet.attributes)
    length = HEADER.size + len(attrs)
    return HEADER.pack(packet.code, packet.identifier, length, packet.authenticator) + attrs


def verify_accounting_request(data: bytes, secret: bytes) -> RADIUSPacket:
    """Decode and authenticate an Accounting-Request (server side)."""
    packet = decode_packet(data)
    if packet.code != PacketCode.ACCOUNTING_REQUEST:
        raise ProtocolError("not an Accounting-Request")
    expected = accounting_request_authenticator(
        packet.code, packet.identifier, packet.attributes, secret
    )
    if not hmac.compare_digest(expected, packet.authenticator):
        raise ProtocolError("accounting request authenticator mismatch")
    return packet


@dataclass
class SessionRecord:
    """One login session as accounting sees it."""

    session_id: str
    username: str
    nas: str
    started_at: Optional[float] = None
    stopped_at: Optional[float] = None
    session_time: Optional[int] = None

    @property
    def open(self) -> bool:
        return self.started_at is not None and self.stopped_at is None


class AccountingServer:
    """Collects session records from Accounting-Requests."""

    def __init__(
        self,
        address: str,
        fabric: UDPFabric,
        secret: bytes,
        clock: Optional[Clock] = None,
    ) -> None:
        self.address = address
        self._secret = secret
        self._clock = clock or WallClock()
        self.sessions: Dict[str, SessionRecord] = {}
        self.duplicates = 0
        self._seen = BoundedCache(DUPLICATE_WINDOW)
        fabric.register(address, self.handle_datagram)

    def handle_datagram(self, datagram: bytes, source: str) -> Optional[bytes]:
        try:
            request = verify_accounting_request(datagram, self._secret)
        except ProtocolError:
            return None  # silently discard, per RFC 2866
        dedup_key = (source, request.identifier, request.authenticator)
        if self._seen.get(dedup_key) is MISSING:
            self._seen.put(dedup_key, True)
            self._apply(request)
        else:
            self.duplicates += 1
        response = RADIUSPacket(PacketCode.ACCOUNTING_RESPONSE, request.identifier)
        return encode_packet(response, self._secret, request.authenticator)

    def _apply(self, request: RADIUSPacket) -> None:
        session_id = request.get_str(Attr.ACCT_SESSION_ID) or "?"
        username = request.get_str(Attr.USER_NAME) or "?"
        nas = request.get_str(Attr.NAS_IDENTIFIER) or "?"
        status_raw = request.get(Attr.ACCT_STATUS_TYPE)
        status = int.from_bytes(status_raw, "big") if status_raw else 0
        record = self.sessions.setdefault(
            session_id, SessionRecord(session_id, username, nas)
        )
        now = self._clock.now()
        if status == AcctStatusType.START:
            record.started_at = now
        elif status == AcctStatusType.STOP:
            record.stopped_at = now
            time_raw = request.get(Attr.ACCT_SESSION_TIME)
            if time_raw:
                record.session_time = int.from_bytes(time_raw, "big")
            elif record.started_at is not None:
                record.session_time = int(now - record.started_at)

    # -- reporting ---------------------------------------------------------------

    def open_sessions(self) -> List[SessionRecord]:
        return [r for r in self.sessions.values() if r.open]

    def total_sessions(self) -> int:
        return len(self.sessions)

    def sessions_for(self, username: str) -> List[SessionRecord]:
        return [r for r in self.sessions.values() if r.username == username]


class AccountingClient:
    """NAS-side accounting emitter."""

    def __init__(
        self,
        fabric: UDPFabric,
        server: str,
        secret: bytes,
        nas_identifier: str,
        source: str = "",
    ) -> None:
        self._fabric = fabric
        self._server = server
        self._secret = secret
        self._nas = nas_identifier
        self._source = source
        self._identifier = 0
        self.acknowledged = 0

    def _send(self, packet: RADIUSPacket) -> bool:
        wire = encode_accounting_request(packet, self._secret)
        for _ in range(3):  # accounting retransmits aggressively
            response = self._fabric.send_request(self._server, wire, self._source)
            if response is None:
                continue
            try:
                decoded = decode_packet(response)
            except ProtocolError:
                continue
            if decoded.code == PacketCode.ACCOUNTING_RESPONSE:
                self.acknowledged += 1
                return True
        return False

    def _base_packet(self, username: str, session_id: str, status: int) -> RADIUSPacket:
        self._identifier = (self._identifier + 1) % 256
        packet = RADIUSPacket(PacketCode.ACCOUNTING_REQUEST, self._identifier)
        packet.add(Attr.USER_NAME, username)
        packet.add(Attr.NAS_IDENTIFIER, self._nas)
        packet.add(Attr.ACCT_SESSION_ID, session_id)
        packet.add(Attr.ACCT_STATUS_TYPE, int(status).to_bytes(4, "big"))
        return packet

    def start(self, username: str, session_id: str) -> bool:
        return self._send(self._base_packet(username, session_id, AcctStatusType.START))

    def stop(self, username: str, session_id: str, session_time: int = 0) -> bool:
        packet = self._base_packet(username, session_id, AcctStatusType.STOP)
        packet.add(Attr.ACCT_SESSION_TIME, int(session_time).to_bytes(4, "big"))
        return self._send(packet)
