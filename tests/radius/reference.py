"""The RADIUS hop as the attribute-by-attribute codec built it.

Before requests became one concatenation of attribute bytes and replies one
scan, the client filled a :class:`Packet` with ``add`` and serialized it
with ``encode_packet``, the server found each attribute with ``get`` /
``get_str`` / ``get_all`` and built its reply the same way (``reply``), and
the client read a verified reply with ``to_auth_response``.  Those
functions are kept here verbatim (only renamed, and the ``Packet`` of
:mod:`repro.radius.packet` spelled out beside them) as the reference the
hot path has to equal byte for byte.  ``attempt_plan`` is the client's
attempt order as it was computed on every call, reading each circuit.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.resilience import CircuitState, HealthTracker
from repro.common.results import ValidateStatus
from repro.radius.client import NAS_IDENTIFIER, AuthResponse, AuthStatus
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import hide_password

HEADER = struct.Struct("!BBH16s")
_CODE_ID_LENGTH = struct.Struct("!BBH")
MAX_PACKET = 4096
_PACKET_CODES = {int(code): code for code in PacketCode}


@dataclass
class Packet:
    code: PacketCode
    identifier: int
    authenticator: bytes = b"\x00" * 16
    attributes: List[Tuple[int, bytes]] = field(default_factory=list)

    def add(self, attr: int, value: bytes | str) -> None:
        if isinstance(value, str):
            value = value.encode()
        if not 0 <= len(value) <= 253:
            raise ProtocolError(f"attribute value length {len(value)} out of range")
        self.attributes.append((int(attr), value))

    def get(self, attr: int) -> Optional[bytes]:
        for a, v in self.attributes:
            if a == int(attr):
                return v
        return None

    def get_all(self, attr: int) -> List[bytes]:
        return [v for a, v in self.attributes if a == int(attr)]

    def get_str(self, attr: int) -> Optional[str]:
        value = self.get(attr)
        return value.decode() if value is not None else None


def _attr_bytes(attributes: List[Tuple[int, bytes]]) -> bytes:
    out = b""
    for attr, value in attributes:
        out += bytes((attr, len(value) + 2)) + value
    return out


def _response_digest(header: bytes, nonce: bytes, attrs: bytes, secret: bytes) -> bytes:
    return hashlib.md5(header + nonce + attrs + secret).digest()


def encode_packet(
    packet: Packet,
    secret: bytes,
    request_authenticator: Optional[bytes] = None,
) -> bytes:
    attrs = _attr_bytes(packet.attributes)
    length = HEADER.size + len(attrs)
    if length > MAX_PACKET:
        raise ProtocolError(f"packet length {length} exceeds maximum {MAX_PACKET}")
    header = _CODE_ID_LENGTH.pack(packet.code, packet.identifier, length)
    if packet.code != PacketCode.ACCESS_REQUEST:
        if request_authenticator is None:
            raise ProtocolError("responses require the request authenticator")
        packet.authenticator = _response_digest(
            header, request_authenticator, attrs, secret
        )
    return header + packet.authenticator + attrs


def decode_packet(data: bytes) -> Packet:
    size = len(data)
    if size < HEADER.size:
        raise ProtocolError(f"packet of {size} bytes is shorter than the header")
    code, identifier, length, authenticator = HEADER.unpack_from(data)
    if length != size:
        raise ProtocolError(f"length field {length} does not match {size} bytes")
    try:
        packet_code = _PACKET_CODES[code]
    except KeyError as exc:
        raise ProtocolError(f"unknown packet code {code}") from exc
    packet = Packet(packet_code, identifier, authenticator)
    pos = HEADER.size
    while pos < size:
        if pos + 2 > size:
            raise ProtocolError("truncated attribute header")
        attr = data[pos]
        attr_len = data[pos + 1]
        if attr_len < 2 or pos + attr_len > size:
            raise ProtocolError(f"invalid attribute length {attr_len}")
        packet.attributes.append((attr, data[pos + 2 : pos + attr_len]))
        pos += attr_len
    return packet


def verify_response(
    response_bytes: bytes, request_authenticator: bytes, secret: bytes
) -> Packet:
    packet = decode_packet(response_bytes)
    expected = _response_digest(
        response_bytes[:4], request_authenticator, response_bytes[HEADER.size :], secret
    )
    if not hmac.compare_digest(expected, packet.authenticator):
        raise ProtocolError("response authenticator verification failed")
    return packet


# -- the client's request --------------------------------------------------------


def request(
    identifier: int,
    authenticator: bytes,
    username: str,
    password: str,
    state: Optional[bytes],
    secret: bytes,
) -> bytes:
    """``RADIUSClient._authenticate``'s request: four ``add``s and an encode."""
    packet = Packet(PacketCode.ACCESS_REQUEST, identifier, authenticator)
    packet.add(Attr.USER_NAME, username)
    packet.add(Attr.USER_PASSWORD, hide_password(password, secret, authenticator))
    packet.add(Attr.NAS_IDENTIFIER, NAS_IDENTIFIER)
    if state is not None:
        packet.add(Attr.STATE, state)
    return encode_packet(packet, secret)


# -- the server's reply ------------------------------------------------------------

#: ValidateStatus -> (packet code, reply message)
STATUS_MAP = {
    ValidateStatus.OK: (PacketCode.ACCESS_ACCEPT, "authentication successful"),
    ValidateStatus.REJECT: (PacketCode.ACCESS_REJECT, "invalid token code"),
    ValidateStatus.LOCKED: (
        PacketCode.ACCESS_REJECT,
        "account temporarily deactivated after repeated failures",
    ),
    ValidateStatus.NO_TOKEN: (PacketCode.ACCESS_REJECT, "no MFA device pairing"),
    ValidateStatus.CHALLENGE_SENT: (
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has been sent to your phone; enter it now",
    ),
    ValidateStatus.CHALLENGE_PENDING: (
        PacketCode.ACCESS_CHALLENGE,
        "an SMS token code has already been sent; enter it when it arrives",
    ),
}


def reply(request: Packet, secret: bytes, code: PacketCode, message: str) -> bytes:
    """``RADIUSServer._reply``."""
    response = Packet(code, request.identifier)
    response.add(Attr.REPLY_MESSAGE, message)
    if code == PacketCode.ACCESS_CHALLENGE:
        username = request.get_str(Attr.USER_NAME) or ""
        response.add(Attr.STATE, f"sms-challenge:{username}".encode())
    for proxy_state in request.get_all(Attr.PROXY_STATE):
        response.add(Attr.PROXY_STATE, proxy_state)
    return encode_packet(response, secret, request.authenticator)


def server_reply(datagram: bytes, secret: bytes, status: ValidateStatus) -> bytes:
    """The reply a server whose back end answers ``status`` sent to a
    well-formed Access-Request with a User-Name (``_respond``'s path)."""
    packet = decode_packet(datagram)
    if packet.get_str(Attr.USER_NAME) is None:
        return reply(packet, secret, PacketCode.ACCESS_REJECT, "User-Name is required")
    return reply(packet, secret, *STATUS_MAP[status])


# -- the client's reading of a reply -----------------------------------------------


def to_auth_response(packet: Packet, server: str) -> AuthResponse:
    """``RADIUSClient._to_auth_response``."""
    message = packet.get_str(Attr.REPLY_MESSAGE) or ""
    if packet.code == PacketCode.ACCESS_ACCEPT:
        status = AuthStatus.ACCEPT
    elif packet.code == PacketCode.ACCESS_CHALLENGE:
        status = AuthStatus.CHALLENGE
    else:
        status = AuthStatus.REJECT
    return AuthResponse(status, message, packet.get(Attr.STATE), server)


# -- the client's attempt order ----------------------------------------------------


def attempt_plan(
    servers: List[str], health: HealthTracker, start: int, now: float, aware: bool
) -> List[Tuple[str, bool]]:
    """``RADIUSClient._attempt_plan``, every circuit read on every call."""
    rotated = servers[start:] + servers[:start]
    if not aware:
        return [(server, False) for server in rotated]
    probes: List[Tuple[str, bool]] = []
    closed: List[Tuple[str, bool]] = []
    cooling: List[Tuple[str, bool]] = []
    for server in rotated:
        if health.probe_due(server, now):
            probes.append((server, True))
        elif health.state(server) is CircuitState.CLOSED:
            closed.append((server, False))
        else:
            cooling.append((server, False))
    return probes + closed + cooling
