"""RFC 2865 RADIUS packet encoding and decoding.

The bytes produced here are the genuine wire format — 20-byte header,
attribute TLVs, MD5 response authenticators, and the XOR-chained
User-Password hiding scheme — so the protocol logic between our PAM token
module and the back end is exercised exactly as it would be over real UDP.

There is one codec.  The client and server build a datagram from attribute
bytes — each attribute one :func:`tlv`, the attributes concatenated — with
:func:`encode`, and read one with :func:`decode` (a response:
:func:`decode_response`, which verifies its authenticator over the bytes
received) into ``(type, value)`` pairs they scan once.  So an attribute
costs a round trip two calls to write and none to find.  The packet object
(:class:`RADIUSPacket`, :func:`encode_packet`, :func:`decode_packet`,
:func:`verify_response`) is a thin wrapper over the same functions, for
callers that build or inspect a packet attribute by attribute.
"""

from __future__ import annotations

import hmac
import random
import struct
from dataclasses import dataclass, field
from hashlib import md5
from itertools import starmap
from typing import List, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import random_octets
from repro.radius.dictionary import PacketCode

HEADER = struct.Struct("!BBH16s")
_HEADER_SIZE = HEADER.size
_CODE_ID_LENGTH = struct.Struct("!BBH")
MAX_PACKET = 4096
#: An attribute value's most octets: its length octet counts the two
#: octets of type and length too.
MAX_ATTRIBUTE = 253
_PACKET_CODES = {int(code): code for code in PacketCode}
#: Each octet value as a one-octet ``bytes``: a TLV's type and length.
_OCTETS = [bytes((n,)) for n in range(256)]

#: A decoded datagram: code, identifier, authenticator, ``(type, value)``
#: attributes in wire order.
Decoded = Tuple[PacketCode, int, bytes, List[Tuple[int, bytes]]]


def tlv(attr: int, value: bytes) -> bytes:
    """One attribute as it goes on the wire: type, length, value."""
    size = len(value)
    if size > MAX_ATTRIBUTE:
        raise ProtocolError(f"attribute value length {size} out of range")
    return _OCTETS[attr] + _OCTETS[size + 2] + value


def _response_digest(header: bytes, nonce: bytes, attrs: bytes, secret: bytes) -> bytes:
    """MD5(code + id + length, the request's authenticator, attributes, secret)."""
    return md5(header + nonce + attrs + secret).digest()


def encode(
    code: int,
    identifier: int,
    authenticator: bytes,
    attrs: bytes,
    secret: Optional[bytes] = None,
) -> bytes:
    """The datagram carrying the attribute bytes ``attrs``.

    For a request ``authenticator`` is its own Request Authenticator.  With
    ``secret`` the datagram is a response: ``authenticator`` is then the
    originating request's, and the header carries the response
    authenticator computed over it (RFC 2865 section 3).
    """
    length = _HEADER_SIZE + len(attrs)
    if length > MAX_PACKET:
        raise ProtocolError(f"packet length {length} exceeds maximum {MAX_PACKET}")
    header = _CODE_ID_LENGTH.pack(code, identifier, length)
    if secret is not None:
        authenticator = _response_digest(header, authenticator, attrs, secret)
    return header + authenticator + attrs


def decode(data: bytes) -> Decoded:
    """Parse wire bytes; raises :class:`ProtocolError` on malformed input.
    Octets past the Length field are padding (RFC 2865 section 3)."""
    size = len(data)
    if size < _HEADER_SIZE:
        raise ProtocolError(f"packet of {size} bytes is shorter than the header")
    code, identifier, length, authenticator = HEADER.unpack_from(data)
    if length < _HEADER_SIZE or length > MAX_PACKET or length > size:
        raise ProtocolError(f"length field {length} does not fit {size} bytes")
    try:
        packet_code = _PACKET_CODES[code]
    except KeyError as exc:
        raise ProtocolError(f"unknown packet code {code}") from exc
    attributes: List[Tuple[int, bytes]] = []
    pos = _HEADER_SIZE
    while pos < length:
        if pos + 2 > length:
            raise ProtocolError("truncated attribute header")
        attr_len = data[pos + 1]
        end = pos + attr_len
        if attr_len < 2 or end > length:
            raise ProtocolError(f"invalid attribute length {attr_len}")
        # ``+=`` a one-pair tuple: the list grows with no call per attribute.
        attributes += ((data[pos], data[pos + 2 : end]),)
        pos = end
    return packet_code, identifier, authenticator, attributes


def decode_response(
    data: bytes, request_authenticator: bytes, secret: bytes
) -> Decoded:
    """:func:`decode` a response and verify its authenticator.

    A forged or corrupted response — or one protected by the wrong shared
    secret — fails here, which is how RADIUS clients authenticate servers.
    The digest is over the octets the length field covers: :func:`decode`
    checked that the TLVs cover them exactly, so these are the bytes
    encoding the decoded packet again would give, and padding is not signed.
    """
    decoded = decode(data)
    end = data[2] << 8 | data[3]  # the length field
    expected = _response_digest(
        data[:4], request_authenticator, data[_HEADER_SIZE:end], secret
    )
    if not hmac.compare_digest(expected, decoded[2]):
        raise ProtocolError("response authenticator verification failed")
    return decoded


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
        if not 0 <= attr <= 255 or len(value) > MAX_ATTRIBUTE:
            raise ProtocolError(f"attribute {attr} of {len(value)} octets out of range")
        self.attributes.append((int(attr), value))

    def get(self, attr: int) -> Optional[bytes]:
        for a, v in self.attributes:
            if a == attr:
                return v
        return None

    def get_all(self, attr: int) -> List[bytes]:
        return [v for a, v in self.attributes if a == attr]

    def get_str(self, attr: int) -> Optional[str]:
        value = self.get(attr)
        return value.decode() if value is not None else None


def _attr_bytes(attributes: List[Tuple[int, bytes]]) -> bytes:
    return b"".join(starmap(tlv, attributes))


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
        digest = md5(secret + prev).digest()
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
        digest = md5(secret + prev).digest()
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


def response_authenticator(
    code: int,
    identifier: int,
    attributes: List[Tuple[int, bytes]],
    request_authenticator: bytes,
    secret: bytes,
) -> bytes:
    """RFC 2865 section 3: MD5 over the response with the request's nonce."""
    attrs = _attr_bytes(attributes)
    return encode(code, identifier, request_authenticator, attrs, secret)[4:_HEADER_SIZE]


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
    if packet.code == PacketCode.ACCESS_REQUEST:
        return encode(packet.code, packet.identifier, packet.authenticator, attrs)
    if request_authenticator is None:
        raise ProtocolError("responses require the request authenticator")
    wire = encode(packet.code, packet.identifier, request_authenticator, attrs, secret)
    packet.authenticator = wire[4:_HEADER_SIZE]
    return wire


def decode_packet(data: bytes) -> RADIUSPacket:
    """Parse wire bytes; raises :class:`ProtocolError` on malformed input."""
    return RADIUSPacket(*decode(data))


def verify_response(
    response_bytes: bytes, request_authenticator: bytes, secret: bytes
) -> RADIUSPacket:
    """Decode a response and verify its authenticator against the request
    (see :func:`decode_response`)."""
    return RADIUSPacket(*decode_response(response_bytes, request_authenticator, secret))
