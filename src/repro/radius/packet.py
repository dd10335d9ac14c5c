"""RFC 2865 RADIUS packet encoding and decoding.

The bytes produced here are the genuine wire format — 20-byte header,
attribute TLVs, MD5 response authenticators, and the XOR-chained
User-Password hiding scheme — so the protocol logic between our PAM token
module and the back end is exercised exactly as it would be over real UDP.
"""

from __future__ import annotations

import hashlib
import hmac
import random
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import random_octets
from repro.radius.dictionary import PacketCode

HEADER = struct.Struct("!BBH16s")
_CODE_ID_LENGTH = struct.Struct("!BBH")
MAX_PACKET = 4096
_PACKET_CODES = {int(code): code for code in PacketCode}


@dataclass
class RADIUSPacket:
    """A decoded packet: code, identifier, authenticator and attributes.

    Attributes are (type, bytes) pairs in wire order; RADIUS allows
    repeated attributes (Reply-Message, Proxy-State) so a flat list, not a
    dict, is the faithful representation.
    """

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


def new_request_authenticator(rng: Optional[random.Random] = None) -> bytes:
    """The random 16-byte Request Authenticator for an Access-Request."""
    return random_octets(rng or random.Random(), 16)


def hide_password(password: str, secret: bytes, authenticator: bytes) -> bytes:
    """RFC 2865 section 5.2 User-Password protection.

    The password is padded to a 16-byte multiple and XORed (a block as one
    integer) with an MD5 chain seeded by the shared secret and the request
    authenticator.
    """
    data = password.encode() or b"\x00"
    size = len(data)
    if size > 128:
        raise ProtocolError("password longer than 128 octets")
    data += b"\x00" * (-size % 16)
    result = b""
    prev = authenticator
    for i in range(0, size, 16):
        digest = hashlib.md5(secret + prev).digest()
        prev = (
            int.from_bytes(data[i : i + 16], "big") ^ int.from_bytes(digest, "big")
        ).to_bytes(16, "big")
        result += prev
    return result


def recover_password(hidden: bytes, secret: bytes, authenticator: bytes) -> str:
    """Invert :func:`hide_password` (the server side)."""
    size = len(hidden)
    if size % 16:
        raise ProtocolError("hidden password length not a 16-byte multiple")
    result = b""
    prev = authenticator
    for i in range(0, size, 16):
        digest = hashlib.md5(secret + prev).digest()
        prev = hidden[i : i + 16]
        result += (
            int.from_bytes(prev, "big") ^ int.from_bytes(digest, "big")
        ).to_bytes(16, "big")
    try:
        return result.rstrip(b"\x00").decode()
    except UnicodeDecodeError as exc:
        # Garbage after de-XOR means the two ends disagree on the shared
        # secret; callers treat this like any other protocol violation.
        raise ProtocolError("password recovery produced non-text bytes") from exc


def _response_digest(header: bytes, nonce: bytes, attrs: bytes, secret: bytes) -> bytes:
    """MD5(code + id + length, the request's authenticator, attributes, secret)."""
    return hashlib.md5(header + nonce + attrs + secret).digest()


def response_authenticator(
    code: int,
    identifier: int,
    attributes: List[Tuple[int, bytes]],
    request_authenticator: bytes,
    secret: bytes,
) -> bytes:
    """RFC 2865 section 3: MD5 over the response with the request's nonce."""
    attrs = _attr_bytes(attributes)
    return _response_digest(
        _CODE_ID_LENGTH.pack(code, identifier, HEADER.size + len(attrs)),
        request_authenticator,
        attrs,
        secret,
    )


def encode_packet(
    packet: RADIUSPacket,
    secret: bytes,
    request_authenticator: Optional[bytes] = None,
) -> bytes:
    """Serialize to wire bytes.

    For responses (Accept/Reject/Challenge) the ``request_authenticator``
    of the originating request is required so the response authenticator
    can be computed; for requests the packet's own authenticator is used.
    """
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


def decode_packet(data: bytes) -> RADIUSPacket:
    """Parse wire bytes; raises :class:`ProtocolError` on malformed input."""
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
    packet = RADIUSPacket(packet_code, identifier, authenticator)
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
) -> RADIUSPacket:
    """Decode a response and verify its authenticator against the request.

    A forged or corrupted response — or one protected by the wrong shared
    secret — fails here, which is how RADIUS clients authenticate servers.
    The digest is over the datagram as received: ``decode_packet`` checked
    that its length field and TLVs cover it exactly, so these are the bytes
    encoding the decoded packet again would give.
    """
    packet = decode_packet(response_bytes)
    expected = _response_digest(
        response_bytes[:4], request_authenticator, response_bytes[HEADER.size :], secret
    )
    if not hmac.compare_digest(expected, packet.authenticator):
        raise ProtocolError("response authenticator verification failed")
    return packet
