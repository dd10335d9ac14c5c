"""No datagram raises out of the RADIUS tier.

An Access-Request is authenticated by nothing but its source address, so
any host that can send from a client's subnet chooses every attribute the
server reads; a reply that verifies can still carry any attribute the
server's secret holder chose.  The server answers or drops, and the client
returns an :class:`AuthResponse`, whatever the bytes.
"""

import hashlib
import random
import struct

from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.results import ValidateStatus
from repro.core import MFACenter
from repro.radius.client import AuthResponse, AuthStatus, RADIUSClient
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import decode_packet, hide_password
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.ssh import SSHClient
from tests.radius.test_codec_differential import FixedBackend, Tap

SECRET = b"untrusted-input-secret"
NAS = "10.3.1.5"
SERVERS = ["10.0.0.10:1812", "10.0.0.11:1812"]

#: Attribute types, the ones the hop reads most often.
TYPES = st.sampled_from(
    [Attr.USER_NAME, Attr.USER_PASSWORD, Attr.STATE, Attr.REPLY_MESSAGE, Attr.PROXY_STATE]
) | st.integers(0, 255)
ATTRIBUTES = st.lists(st.tuples(TYPES, st.binary(max_size=253)), max_size=24)


def datagram(code: int, identifier: int, authenticator: bytes, attributes) -> bytes:
    """Header and TLVs as given: a length up to 65,535 octets, any code."""
    attrs = b"".join(bytes((attr, len(value) + 2)) + value for attr, value in attributes)
    return struct.pack("!BBH", code, identifier, 20 + len(attrs)) + authenticator + attrs


def signed(code: int, identifier: int, request_authenticator: bytes, attributes, secret) -> bytes:
    unsigned = datagram(code, identifier, bytes(16), attributes)
    digest = hashlib.md5(
        unsigned[:4] + request_authenticator + unsigned[20:] + secret
    ).digest()
    return unsigned[:4] + digest + unsigned[20:]


@settings(max_examples=300, deadline=None)
@given(
    attributes=ATTRIBUTES,
    password=st.none() | st.text(max_size=16),
    identifier=st.integers(0, 255),
    authenticator=st.binary(min_size=16, max_size=16),
    status=st.sampled_from(ValidateStatus),
)
def test_a_known_clients_request_is_answered_or_dropped(
    attributes, password, identifier, authenticator, status
):
    """Any attributes, with or without a User-Password hidden under the
    right secret, whatever the back end answers."""
    if password is not None:
        attributes = attributes + [
            (Attr.USER_PASSWORD, hide_password(password, SECRET, authenticator))
        ]
    server = RADIUSServer(SERVERS[0], UDPFabric(), FixedBackend(status))
    server.add_client("10.", SECRET)
    wire = datagram(PacketCode.ACCESS_REQUEST, identifier, authenticator, attributes)
    answer = server.handle_datagram(wire, NAS)
    assert answer is None or isinstance(answer, bytes)


def test_a_user_name_that_is_not_utf8_is_rejected_unvalidated():
    backend = FixedBackend(ValidateStatus.OK)
    server = RADIUSServer(SERVERS[0], UDPFabric(), backend)
    server.add_client("10.", SECRET)
    authenticator = bytes(range(16))
    wire = datagram(
        PacketCode.ACCESS_REQUEST,
        7,
        authenticator,
        [
            (Attr.USER_NAME, b"\xff\xfe"),
            (Attr.USER_PASSWORD, hide_password("123456", SECRET, authenticator)),
            (Attr.PROXY_STATE, b"hop"),
        ],
    )
    reply = decode_packet(server.handle_datagram(wire, NAS))
    assert (reply.code, reply.identifier) == (PacketCode.ACCESS_REJECT, 7)
    assert reply.get_str(Attr.REPLY_MESSAGE) == "User-Name is required"
    assert reply.get_all(Attr.PROXY_STATE) == [b"hop"]
    assert backend.calls == []


def test_proxy_states_that_leave_no_room_for_the_reply_are_dropped():
    server = RADIUSServer(SERVERS[0], UDPFabric(), FixedBackend(ValidateStatus.OK))
    server.add_client("10.", SECRET)
    # 4,070 octets of them: the request is 4,093 octets, the reply would
    # not fit in 4,096.
    hops = [(Attr.PROXY_STATE, bytes(253))] * 15 + [(Attr.PROXY_STATE, bytes(243))]
    wire = datagram(PacketCode.ACCESS_REQUEST, 1, bytes(16), [(Attr.USER_NAME, b"a")] + hops)
    assert len(wire) <= 4096
    assert server.handle_datagram(wire, NAS) is None
    # The claim was released: a retransmission is validated again.
    assert server.handle_datagram(wire, NAS) is None
    assert (server.handled, server.duplicates_dropped) == (2, 0)


def replies(request: bytes):
    """Whatever a fabric might hand back for ``request``: nothing, noise,
    or a reply with any code, identifier and attributes, signed with the
    right secret or a wrong one."""
    identifier, authenticator = request[1], request[4:20]
    return st.one_of(
        st.none(),
        st.binary(max_size=64),
        st.builds(
            signed,
            st.sampled_from(PacketCode) | st.integers(0, 255),
            st.just(identifier) | st.integers(0, 255),
            st.just(authenticator),
            ATTRIBUTES,
            st.just(SECRET) | st.just(b"wrong-secret"),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_authenticate_never_raises_whatever_comes_back(data):
    client = RADIUSClient(
        Tap(lambda wire: data.draw(replies(wire))),
        SERVERS,
        SECRET,
        NAS,
        rng=random.Random(1),
        clock=VirtualClock.at("2016-10-05T09:00:00"),
    )
    for _ in range(2):
        assert isinstance(client.authenticate("alice", "123456"), AuthResponse)


def test_a_reply_message_that_is_not_utf8_is_retransmitted_like_a_corrupt_reply():
    answers = []

    def answer(wire):
        message = b"\xff\xfe" if not answers else b"authentication successful"
        answers.append(message)
        return signed(
            PacketCode.ACCESS_ACCEPT, wire[1], wire[4:20], [(Attr.REPLY_MESSAGE, message)], SECRET
        )

    client = RADIUSClient(Tap(answer), SERVERS, SECRET, NAS, rng=random.Random(2))
    response = client.authenticate("alice", "123456")
    assert (response.status, response.message) == (
        AuthStatus.ACCEPT, "authentication successful"
    )
    assert len(answers) == 2  # the unreadable reply, then the retransmit's
    health = client.health.health(response.server)
    assert (health.failures, health.successes) == (1, 1)


def test_non_ascii_digits_reach_the_back_end_as_a_malformed_code():
    """Six Arabic-Indic digits typed at the token prompt cross SSH, PAM and
    the RADIUS hop as UTF-8, and validate calls them malformed."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="hunter2")
    center.pair_soft("alice")
    seen = []
    validate = center.radius_backend.validate

    def recording(user, code=None, source=None):
        result = validate(user, code, source)
        seen.append((code, result.reason))
        return result

    center.radius_backend.validate = recording
    result, _ = SSHClient(source_ip="198.51.100.7").connect(
        system.login_node(), "alice", password="hunter2", token="١٢٣٤٥٦"
    )
    assert not result.success
    assert seen and set(seen) == {("١٢٣٤٥٦", "malformed code")}
