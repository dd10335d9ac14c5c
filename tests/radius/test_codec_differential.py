"""The RADIUS hop puts the reference codec's bytes on the wire.

``tests/radius/reference.py`` keeps the attribute-by-attribute request,
reply and reply reading the client and server used before requests became
one concatenation of attribute bytes and replies one scan.  Every datagram
of a round trip here — the client's request, the server's reply — must be
those bytes, and the client must read the reply as the reference did.
The attempt order is held to the reference the same way: after any run of
circuit events the precomputed rotation is what the full plan computes.
"""

import random
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.ids import random_octets
from repro.common.resilience import CircuitState
from repro.common.results import ValidateResult, ValidateStatus
from repro.radius import client as client_module
from repro.radius.client import AuthStatus, RADIUSClient
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from tests.radius import reference

SECRET = b"differential-secret"
NAS = "10.3.1.5"
SERVER = "10.0.0.10:1812"

#: User names of 0 to 253 octets: ASCII up to the limit, any text short
#: enough that four octets a character still fit.
NAMES = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=253),
    st.text(max_size=63),
)
#: Passwords (token codes) of 0 to 128 octets, the same way.
PASSWORDS = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=128),
    st.text(max_size=32),
)
STATES = st.none() | st.binary(max_size=253)
PROXY_STATES = st.lists(st.binary(max_size=253), max_size=3)
CHALLENGE_PREFIX = len(b"sms-challenge:")


class FixedBackend:
    """A back end that answers every validate with one status."""

    def __init__(self, status: ValidateStatus) -> None:
        self.status = status
        self.calls = []

    def validate(self, user_id, code=None, source=None):
        self.calls.append((user_id, code))
        return ValidateResult(self.status)


class Tap:
    """A fabric that hands each request to ``answer`` and keeps it."""

    def __init__(self, answer) -> None:
        self.answer = answer
        self.sent = []

    def send_request(self, address, datagram, source=""):
        self.sent.append(datagram)
        return self.answer(datagram)


@settings(max_examples=300, deadline=None)
@given(
    username=NAMES,
    password=PASSWORDS,
    state=STATES,
    status=st.sampled_from(ValidateStatus),
    proxy_states=PROXY_STATES,
    seed=st.integers(0, 2**32 - 1),
)
def test_a_round_trip_is_the_reference_round_trip(
    username, password, state, status, proxy_states, seed
):
    """Request bytes, reply bytes and the client's reading of the reply.

    The request is relayed with ``proxy_states`` appended, as a proxy in
    front of the server would; the client's identifier and authenticator
    come from its seeded RNG, so any identifier is reached.
    """
    challenge = status in (ValidateStatus.CHALLENGE_SENT, ValidateStatus.CHALLENGE_PENDING)
    assume(not challenge or len(username.encode()) + CHALLENGE_PREFIX <= 253)
    server = RADIUSServer(SERVER, UDPFabric(), FixedBackend(status))
    server.add_client("10.", SECRET)
    replies = []

    def answer(wire):
        relayed = reference.decode_packet(wire)
        for proxy_state in proxy_states:
            relayed.add(Attr.PROXY_STATE, proxy_state)
        relayed_wire = reference.encode_packet(relayed, SECRET)
        reply = server.handle_datagram(relayed_wire, NAS)
        assert reply == reference.server_reply(relayed_wire, SECRET, status)
        replies.append(reply)
        return reply

    tap = Tap(answer)
    client = RADIUSClient(tap, [SERVER], SECRET, NAS, rng=random.Random(seed))
    response = client.authenticate(username, password, state)

    draws = random.Random(seed)
    identifier = (draws.randrange(256) + 1) % 256
    authenticator = random_octets(draws, 16)
    (wire,) = tap.sent
    assert wire == reference.request(
        identifier, authenticator, username, password, state, SECRET
    )
    (reply,) = replies
    packet = reference.verify_response(reply, authenticator, SECRET)
    assert response == reference.to_auth_response(packet, SERVER)


def test_a_challenge_for_a_very_long_name_carries_one_attribute_of_state():
    """The reference raised for a challenge whose State outgrew one
    attribute; the server now cuts the State to 253 octets."""
    backend = FixedBackend(ValidateStatus.CHALLENGE_SENT)
    server = RADIUSServer(SERVER, UDPFabric(), backend)
    server.add_client("10.", SECRET)
    name = "n" * 253
    request = reference.Packet(PacketCode.ACCESS_REQUEST, 5, bytes(16))
    request.add(Attr.USER_NAME, name)
    wire = server.handle_datagram(reference.encode_packet(request, SECRET), NAS)
    reply = reference.decode_packet(wire)
    assert reply.code == PacketCode.ACCESS_CHALLENGE
    assert reply.get(Attr.STATE) == (b"sms-challenge:" + name.encode())[:253]


#: Any attribute a reply can carry, Reply-Message and State most often.
REPLY_ATTRIBUTES = st.lists(
    st.tuples(
        st.sampled_from([Attr.REPLY_MESSAGE, Attr.STATE]) | st.integers(0, 255),
        st.one_of(st.text(max_size=60).map(str.encode), st.binary(max_size=253)),
    ),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(
    code=st.sampled_from([c for c in PacketCode if c != PacketCode.ACCESS_REQUEST]),
    attributes=REPLY_ATTRIBUTES,
    seed=st.integers(0, 2**32 - 1),
)
def test_the_client_reads_any_reply_as_the_reference(code, attributes, seed):
    """Replies of any code and attributes.  One the reference could not
    read (its Reply-Message is not UTF-8) is no reply at all: every
    retransmit is spent and the call times out."""
    expected = []

    def answer(wire):
        request = reference.decode_packet(wire)
        reply = reference.Packet(code, request.identifier)
        for attr, value in attributes:
            reply.add(attr, value)
        reply_wire = reference.encode_packet(reply, SECRET, request.authenticator)
        packet = reference.verify_response(reply_wire, request.authenticator, SECRET)
        try:
            expected.append(reference.to_auth_response(packet, SERVER))
        except UnicodeDecodeError:
            expected.append(None)
        return reply_wire

    tap = Tap(answer)
    client = RADIUSClient(tap, [SERVER], SECRET, NAS, rng=random.Random(seed))
    response = client.authenticate("alice", "123456")
    if expected[0] is None:
        assert response.status is AuthStatus.TIMEOUT
        assert len(tap.sent) == client_module.RETRIES
    else:
        assert response == expected[0]


# -- the attempt plan -------------------------------------------------------------

SERVERS = ["10.0.0.10:1812", "10.0.0.11:1812", "10.0.0.12:1812"]
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["on_success", "on_failure", "begin_probe"]),
        st.sampled_from(SERVERS),
        st.floats(0, 600),  # seconds to let pass first
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(events=EVENTS, aware=st.booleans())
def test_the_attempt_plan_is_the_full_plan_after_any_circuit_events(events, aware):
    """The tracker's count of circuits that are not CLOSED is that number,
    and the plan the client uses is the one it computed circuit by circuit
    on every call (blind round-robin included)."""
    with mock.patch.object(client_module, "HEALTH_AWARE", aware):
        check_plans(events, aware)


def check_plans(events, aware):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    client = RADIUSClient(Tap(lambda wire: None), SERVERS, SECRET, NAS, clock=clock)
    tracker = client.health
    for event, server, wait in events:
        clock.advance(wait)
        getattr(tracker, event)(server, clock.now())
        not_closed = sum(tracker.state(s) is not CircuitState.CLOSED for s in SERVERS)
        assert tracker.ejected == not_closed
        for start in range(len(SERVERS)):
            assert list(client._attempt_plan(start)) == reference.attempt_plan(
                SERVERS, tracker, start, clock.now(), aware
            )
