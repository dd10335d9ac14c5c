"""The RADIUS duplicate cache claims a request before validating it.

RFC 5080 section 2.2.2: a retransmission must never be validated a second
time — the second validate of a one-time code answers "replay", and a
correct login is rejected.  The cache used to be check-then-act (look up,
validate, *then* store), so a retransmission racing the original missed
it: every one of 200 concurrent pairs was validated twice.  Now the key is
claimed under the server lock first; a duplicate of a request still in
flight is dropped silently and the client's next retransmit finds the
answer.
"""

import random
import sys
import threading

import pytest

from repro.common.clock import VirtualClock
from repro.common.results import ValidateResult, ValidateStatus
from repro.crypto.totp import totp_at
from repro.otpserver import OTPServer
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    encode_packet,
    hide_password,
    new_request_authenticator,
    verify_response,
)
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric

SECRET = b"duplicate-claim-secret"
SOURCE = "10.3.1.5"
PAIRS = 200


class CountingBackend:
    """Forwards to the OTP server; remembers every verdict it gave."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.results = []

    def validate(self, user_id, code, source=None):
        result = self._inner.validate(user_id, code, source)
        with self._lock:
            self.results.append((user_id, result))
        return result


def _request(rng, identifier, username, code):
    authenticator = new_request_authenticator(rng)
    packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, identifier, authenticator)
    packet.add(Attr.USER_NAME, username)
    packet.add(Attr.USER_PASSWORD, hide_password(code, SECRET, authenticator))
    return encode_packet(packet, SECRET), authenticator


def test_concurrent_retransmissions_validate_once(seed):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    rng = random.Random(seed)
    otp = OTPServer(clock=clock, rng=rng)
    backend = CountingBackend(otp)
    server = RADIUSServer("10.0.0.10:1812", UDPFabric(rng=rng), backend)
    server.add_client("10.", SECRET)
    requests = []
    for n in range(PAIRS):
        _, secret = otp.enroll_soft(f"u{n}")
        requests.append(
            _request(rng, n % 256, f"u{n}", totp_at(secret, clock.now()))
        )
    barrier = threading.Barrier(2)
    answers = [[None, None] for _ in range(PAIRS)]

    def worker(slot: int) -> None:
        for n, (wire, _) in enumerate(requests):
            barrier.wait(timeout=30.0)
            answers[n][slot] = server.handle_datagram(wire, SOURCE)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    # One validate per pair, every one an accept: no code was burned.
    assert sorted(user for user, _ in backend.results) == sorted(
        f"u{n}" for n in range(PAIRS)
    )
    assert all(result.ok for _, result in backend.results)
    assert not any("replay" in result.reason for _, result in backend.results)
    # Each answer is the accept, or silence for the copy that arrived while
    # the original was in flight — and at least one copy got the accept.
    for (_, authenticator), pair in zip(requests, answers):
        heard = [answer for answer in pair if answer is not None]
        assert heard
        for answer in heard:
            response = verify_response(answer, authenticator, SECRET)
            assert response.code == PacketCode.ACCESS_ACCEPT
    snap = server.snapshot()
    assert snap["handled"] == server.handled == PAIRS
    assert (
        snap["handled"] + snap["duplicates_replayed"] + snap["duplicates_dropped"]
        == 2 * PAIRS
    )
    silent = sum(pair.count(None) for pair in answers)
    assert snap["duplicates_dropped"] == server.duplicates_dropped == silent
    # A late retransmit of any of them finds the cached answer.
    wire, authenticator = requests[0]
    replayed = server.handle_datagram(wire, SOURCE)
    assert verify_response(replayed, authenticator, SECRET).code == PacketCode.ACCESS_ACCEPT
    assert len(backend.results) == PAIRS


class TestClaimIsReleased:
    """No response means no cache entry: the retransmit is validated."""

    def _server(self, backend):
        server = RADIUSServer("10.0.0.10:1812", UDPFabric(), backend)
        server.add_client("10.", SECRET)
        return server

    def test_raising_backend_releases_the_claim(self):
        class Flaky:
            calls = 0

            def validate(self, user_id, code, source=None):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("storage fault")
                return ValidateResult(ValidateStatus.OK)

        backend = Flaky()
        server = self._server(backend)
        wire, authenticator = _request(random.Random(1), 7, "alice", "123456")
        with pytest.raises(RuntimeError):
            server.handle_datagram(wire, SOURCE)
        answer = server.handle_datagram(wire, SOURCE)
        assert verify_response(answer, authenticator, SECRET).code == PacketCode.ACCESS_ACCEPT
        assert (backend.calls, server.handled, server.duplicates_dropped) == (2, 2, 0)

    def test_dropped_request_releases_the_claim(self):
        class Never:
            def validate(self, user_id, code, source=None):
                raise AssertionError("a mangled password must not reach the back end")

        server = self._server(Never())
        authenticator = new_request_authenticator(random.Random(2))
        packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 9, authenticator)
        packet.add(Attr.USER_NAME, "alice")
        packet.add(Attr.USER_PASSWORD, b"\x00" * 7)  # not a multiple of 16
        wire = encode_packet(packet, SECRET)
        assert server.handle_datagram(wire, SOURCE) is None
        assert server.handle_datagram(wire, SOURCE) is None
        assert (server.handled, server.duplicates_dropped) == (2, 0)
