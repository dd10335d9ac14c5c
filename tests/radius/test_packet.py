"""RADIUS wire format: header, attributes, authenticators, password hiding."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ProtocolError
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    hide_password,
    new_request_authenticator,
    recover_password,
    response_authenticator,
    verify_response,
)

SECRET = b"shared-secret"


def make_request(rng_seed=1):
    auth = new_request_authenticator(random.Random(rng_seed))
    packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 42, auth)
    packet.add(Attr.USER_NAME, "alice")
    packet.add(Attr.USER_PASSWORD, hide_password("123456", SECRET, auth))
    return packet


class TestWireFormat:
    def test_round_trip(self):
        packet = make_request()
        decoded = decode_packet(encode_packet(packet, SECRET))
        assert decoded.code == PacketCode.ACCESS_REQUEST
        assert decoded.identifier == 42
        assert decoded.get_str(Attr.USER_NAME) == "alice"

    def test_header_length_field(self):
        wire = encode_packet(make_request(), SECRET)
        assert int.from_bytes(wire[2:4], "big") == len(wire)

    def test_truncated_packet_rejected(self):
        with pytest.raises(ProtocolError, match="shorter than the header"):
            decode_packet(b"\x01\x02\x03")

    def test_length_mismatch_rejected(self):
        wire = bytearray(encode_packet(make_request(), SECRET))
        wire[3] += 1  # lie about the length
        with pytest.raises(ProtocolError, match="length field"):
            decode_packet(bytes(wire))

    def test_unknown_code_rejected(self):
        wire = bytearray(encode_packet(make_request(), SECRET))
        wire[0] = 99
        with pytest.raises(ProtocolError, match="unknown packet code"):
            decode_packet(bytes(wire))

    def test_truncated_attribute_rejected(self):
        packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 1, b"\x00" * 16)
        wire = bytearray(encode_packet(packet, SECRET))
        wire.extend(b"\x01\x09ab")  # claims 9 bytes, provides 2
        wire[2:4] = len(wire).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="invalid attribute length"):
            decode_packet(bytes(wire))

    def test_repeated_attributes_preserved(self):
        packet = RADIUSPacket(PacketCode.ACCESS_ACCEPT, 7)
        packet.add(Attr.REPLY_MESSAGE, "one")
        packet.add(Attr.REPLY_MESSAGE, "two")
        wire = encode_packet(packet, SECRET, b"\x00" * 16)
        decoded = decode_packet(wire)
        assert [v.decode() for v in decoded.get_all(Attr.REPLY_MESSAGE)] == ["one", "two"]

    def test_attribute_too_long_rejected(self):
        packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 1)
        with pytest.raises(ProtocolError):
            packet.add(Attr.REPLY_MESSAGE, "x" * 254)

    @given(st.binary(min_size=20, max_size=200))
    def test_decoder_never_crashes(self, noise):
        try:
            decode_packet(noise)
        except ProtocolError:
            pass  # rejection is fine; crashing is not


class TestPasswordHiding:
    def test_round_trip(self):
        auth = new_request_authenticator(random.Random(2))
        hidden = hide_password("123456", SECRET, auth)
        assert recover_password(hidden, SECRET, auth) == "123456"

    def test_hidden_is_not_plaintext(self):
        auth = new_request_authenticator(random.Random(3))
        assert b"123456" not in hide_password("123456", SECRET, auth)

    def test_length_is_16_multiple(self):
        auth = new_request_authenticator(random.Random(4))
        for pw in ("x", "1234567890123456", "a" * 30):
            assert len(hide_password(pw, SECRET, auth)) % 16 == 0

    def test_long_password_multiblock(self):
        auth = new_request_authenticator(random.Random(5))
        pw = "p" * 40  # three blocks
        assert recover_password(hide_password(pw, SECRET, auth), SECRET, auth) == pw

    def test_empty_password(self):
        auth = new_request_authenticator(random.Random(6))
        hidden = hide_password("", SECRET, auth)
        assert recover_password(hidden, SECRET, auth) == ""

    def test_over_128_rejected(self):
        with pytest.raises(ProtocolError):
            hide_password("x" * 129, SECRET, b"\x00" * 16)

    def test_wrong_secret_fails(self):
        auth = new_request_authenticator(random.Random(7))
        hidden = hide_password("123456", SECRET, auth)
        with pytest.raises(ProtocolError):
            recover_password(hidden, b"other-secret", auth)
        # Occasionally the XOR garbage is valid UTF-8; ProtocolError or a
        # wrong password are both acceptable failure signals — but for this
        # seed it raises.

    def test_bad_block_size_rejected(self):
        with pytest.raises(ProtocolError, match="16-byte multiple"):
            recover_password(b"short", SECRET, b"\x00" * 16)

    @given(
        pw=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=0,
            max_size=32,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_any_password(self, pw, seed):
        auth = new_request_authenticator(random.Random(seed))
        assert recover_password(hide_password(pw, SECRET, auth), SECRET, auth) == pw


class TestResponseAuthenticator:
    def test_valid_response_verifies(self):
        request = make_request()
        response = RADIUSPacket(PacketCode.ACCESS_ACCEPT, request.identifier)
        response.add(Attr.REPLY_MESSAGE, "ok")
        wire = encode_packet(response, SECRET, request.authenticator)
        verified = verify_response(wire, request.authenticator, SECRET)
        assert verified.code == PacketCode.ACCESS_ACCEPT

    def test_wrong_secret_rejected(self):
        request = make_request()
        response = RADIUSPacket(PacketCode.ACCESS_ACCEPT, request.identifier)
        wire = encode_packet(response, b"wrong", request.authenticator)
        with pytest.raises(ProtocolError, match="authenticator"):
            verify_response(wire, request.authenticator, SECRET)

    def test_tampered_attribute_rejected(self):
        request = make_request()
        response = RADIUSPacket(PacketCode.ACCESS_REJECT, request.identifier)
        response.add(Attr.REPLY_MESSAGE, "denied")
        wire = bytearray(encode_packet(response, SECRET, request.authenticator))
        wire[-1] ^= 0xFF  # flip a byte of the reply message
        with pytest.raises(ProtocolError):
            verify_response(bytes(wire), request.authenticator, SECRET)

    def test_code_flip_rejected(self):
        # An attacker flipping Reject -> Accept must fail verification.
        request = make_request()
        response = RADIUSPacket(PacketCode.ACCESS_REJECT, request.identifier)
        wire = bytearray(encode_packet(response, SECRET, request.authenticator))
        wire[0] = PacketCode.ACCESS_ACCEPT
        with pytest.raises(ProtocolError):
            verify_response(bytes(wire), request.authenticator, SECRET)

    def test_responses_require_request_authenticator(self):
        response = RADIUSPacket(PacketCode.ACCESS_ACCEPT, 1)
        with pytest.raises(ProtocolError, match="request authenticator"):
            encode_packet(response, SECRET)

    def test_authenticator_depends_on_all_fields(self):
        base = response_authenticator(2, 1, [], b"\x00" * 16, SECRET)
        assert response_authenticator(3, 1, [], b"\x00" * 16, SECRET) != base
        assert response_authenticator(2, 2, [], b"\x00" * 16, SECRET) != base
        assert response_authenticator(2, 1, [(18, b"x")], b"\x00" * 16, SECRET) != base
        assert response_authenticator(2, 1, [], b"\x01" * 16, SECRET) != base


# -- the codec is the same codec ----------------------------------------------
#
# The per-byte forms below are what ``packet.py`` ran before it XORed a block
# as one integer and drew the authenticator in one call; they live here, as
# the reference the faster code has to equal.


def reference_hide(password: str, secret: bytes, authenticator: bytes) -> bytes:
    data = password.encode() or b"\x00"
    padded = data + b"\x00" * ((16 - len(data) % 16) % 16)
    result, prev = bytearray(), authenticator
    for i in range(0, len(padded), 16):
        digest = hashlib.md5(secret + prev).digest()
        prev = bytes(p ^ d for p, d in zip(padded[i : i + 16], digest))
        result.extend(prev)
    return bytes(result)


passwords = st.text(max_size=128).filter(
    lambda pw: len(pw.encode()) <= 128 and not pw.endswith("\x00")
)


class TestSameCodec:
    @given(
        pw=passwords,
        secret=st.binary(min_size=1, max_size=48),
        authenticator=st.binary(min_size=16, max_size=16),
    )
    def test_hide_equals_per_byte_reference_and_recover_inverts(
        self, pw, secret, authenticator
    ):
        hidden = hide_password(pw, secret, authenticator)
        assert hidden == reference_hide(pw, secret, authenticator)
        assert recover_password(hidden, secret, authenticator) == pw

    def test_rfc2865_section_7_1_vector(self):
        """User ``nemo``, password ``arctangent``, secret ``xyzzy5461``."""
        authenticator = bytes.fromhex("0f403f9473978057bd83d5cb98f4227a")
        hidden = hide_password("arctangent", b"xyzzy5461", authenticator)
        assert hidden.hex() == "0dbe708d93d413ce3196e43f782a0aee"
        assert recover_password(hidden, b"xyzzy5461", authenticator) == "arctangent"
        request = RADIUSPacket(PacketCode.ACCESS_REQUEST, 0, authenticator)
        request.add(Attr.USER_NAME, "nemo")
        request.add(Attr.USER_PASSWORD, hidden)
        request.add(Attr.NAS_IP_ADDRESS, bytes([192, 168, 1, 16]))
        request.add(5, (3).to_bytes(4, "big"))  # NAS-Port
        assert encode_packet(request, b"xyzzy5461").hex() == (
            "01000038" "0f403f9473978057bd83d5cb98f4227a"
            "01066e656d6f" "02120dbe708d93d413ce3196e43f782a0aee"
            "0406c0a80110" "050600000003"
        )
        # ... and the Access-Accept the RFC's server sends back.
        accept = RADIUSPacket(PacketCode.ACCESS_ACCEPT, 0)
        accept.add(Attr.SERVICE_TYPE, (1).to_bytes(4, "big"))
        accept.add(15, (0).to_bytes(4, "big"))  # Login-Service: Telnet
        accept.add(14, bytes([192, 168, 1, 3]))  # Login-IP-Host
        wire = encode_packet(accept, b"xyzzy5461", authenticator)
        assert wire.hex() == (
            "02000026" "86fe220e7624ba2a1005f6bf9b55e0b2"
            "060600000001" "0f0600000000" "0e06c0a80103"
        )
        assert verify_response(wire, authenticator, b"xyzzy5461").code == 2

    @pytest.mark.parametrize("seed", range(200))
    def test_one_draw_authenticator_is_the_sixteen_draws(self, seed):
        one, sixteen = random.Random(seed), random.Random(seed)
        expected = bytes(sixteen.getrandbits(8) for _ in range(16))
        assert new_request_authenticator(one) == expected
        # The shared seeded stream is where the sixteen draws left it.
        assert one.random() == sixteen.random()

    @given(
        attributes=st.lists(
            st.tuples(st.integers(1, 255), st.binary(max_size=40)), max_size=6
        ),
        identifier=st.integers(0, 255),
        request_auth=st.binary(min_size=16, max_size=16),
    )
    def test_verify_digests_the_datagram_it_decoded(
        self, attributes, identifier, request_auth
    ):
        """``verify_response`` hashes the received bytes; that is the same
        digest as re-encoding the decoded attributes."""
        response = RADIUSPacket(PacketCode.ACCESS_REJECT, identifier)
        for attr, value in attributes:
            response.add(attr, value)
        wire = encode_packet(response, SECRET, request_auth)
        verified = verify_response(wire, request_auth, SECRET)
        assert verified.attributes == attributes
        assert verified.authenticator == response_authenticator(
            PacketCode.ACCESS_REJECT, identifier, attributes, request_auth, SECRET
        )

    def test_seeded_login_datagrams_are_the_parents(self):
        """One seeded login's request and response, byte for byte as the
        commit before the integer-XOR codec put them on the wire."""
        from repro.common.clock import VirtualClock
        from repro.core import MFACenter
        from repro.crypto.totp import TOTPGenerator
        from repro.ssh import SSHClient

        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(clock=clock, rng=random.Random(20160810))
        system = center.add_system("stampede", mode="full")
        center.create_user("alice", password="hunter2")
        _, secret = center.pair_soft("alice")
        seen = []
        send = center.fabric.send_request

        def tap(server, wire, source):
            reply = send(server, wire, source)
            seen.append((wire.hex(), reply.hex()))
            return reply

        center.fabric.send_request = tap
        result, _ = SSHClient(source_ip="198.51.100.7").connect(
            system.login_node(),
            "alice",
            password="hunter2",
            token=TOTPGenerator(secret=secret, clock=clock).current_code,
        )
        assert result.success
        assert seen == [
            (
                "01d20039406c0b81a060b27f72b550693c2648650107616c6963650212060453"
                "e2a967f1f14a688a698d30740a200c6c6f67696e2d6e6f6465",
                "02d2002f02313d0845ffcdd3979cf2a1d9701c54121b61757468656e74696361"
                "74696f6e207375636365737366756c",
            )
        ]
