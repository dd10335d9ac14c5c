"""Fuzz robustness: hostile/random inputs must fail cleanly, never crash.

Public-facing parsers are attack surface: the RADIUS codec sees whatever
arrives on the UDP port, the ACL and pam.d parsers see whatever an admin
mistypes, and the QR decoder sees whatever a camera produces.  Each must
reject garbage with its documented exception type and nothing else.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, ProtocolError
from repro.otpserver.server import OTPServer
from repro.pam.acl import InMemoryExemptionACL, parse_rules
from repro.pam.framework import PAMResult, PAMSession, parse_pam_config
from repro.qr.decoder import QRDecodeError, decode_matrix
from repro.radius.packet import decode_packet
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.common.clock import VirtualClock


class TestRADIUSFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_decoder_rejects_cleanly(self, noise):
        try:
            decode_packet(noise)
        except ProtocolError:
            pass

    @given(st.binary(max_size=300))
    @settings(max_examples=100)
    def test_server_never_crashes_on_garbage(self, noise):
        clock = VirtualClock(0.0)
        fabric = UDPFabric()
        server = RADIUSServer("fuzz:1812", fabric, OTPServer(clock=clock))
        server.add_client("10.", b"secret")
        # Unknown source: dropped.  Known source, garbage payload: dropped.
        assert server.handle_datagram(noise, "8.8.8.8") is None
        result = server.handle_datagram(noise, "10.0.0.1")
        assert result is None or isinstance(result, bytes)


class TestACLFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_parse_rules_rejects_cleanly(self, text):
        try:
            parse_rules(text)
        except ConfigurationError:
            pass

    @given(
        st.lists(
            st.text(alphabet=" :+-ALL0123456789./,abcdef", max_size=40), max_size=5
        )
    )
    @settings(max_examples=100)
    def test_structured_garbage(self, lines):
        try:
            parse_rules("\n".join(lines))
        except ConfigurationError:
            pass


    @given(
        st.lists(
            st.text(alphabet=" :+-AL0123456789./,²¹１２٣०", max_size=40), max_size=5
        ),
        st.text(alphabet="0123456789.²１٣", max_size=16),
    )
    @settings(max_examples=150)
    def test_unicode_digits_fail_closed(self, lines, origin):
        """``²`` and ``１`` pass ``str.isdigit()``: the loader must answer
        ConfigurationError (never ValueError), and a check must answer."""
        text = "\n".join(lines)
        try:
            parse_rules(text)
        except ConfigurationError:
            pass
        acl = InMemoryExemptionACL(text, clock=VirtualClock(0.0))
        assert acl.check("alice", origin) in (True, False)


class TestPAMConfigFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=150)
    def test_parser_rejects_cleanly(self, text):
        try:
            parse_pam_config("sshd", text, {})
        except ConfigurationError:
            pass

    @given(
        code=st.sampled_from(["success", "default", "auth_err"]),
        action=st.text(alphabet="0123456789²³１٣okdie", min_size=1, max_size=6),
    )
    @settings(max_examples=150)
    def test_a_control_that_parses_runs(self, code, action):
        """Whatever jump count the parser lets through, the stack can take."""
        registry = {"pam_ok.so": lambda options: _AlwaysSucceeds()}
        text = f"auth [{code}={action} default=bad] pam_ok.so\nauth required pam_ok.so\n"
        try:
            stack = parse_pam_config("sshd", text, registry)
        except ConfigurationError:
            return
        session = PAMSession(username="alice", remote_ip="10.1.2.3")
        assert isinstance(stack.authenticate(session), PAMResult)


class _AlwaysSucceeds:
    name = "pam_ok"

    def authenticate(self, session):
        return PAMResult.SUCCESS


class TestQRFuzz:
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([21, 25, 29, 33]))
    @settings(max_examples=60, deadline=None)
    def test_random_matrix_rejected_cleanly(self, seed, size):
        rng = random.Random(seed)
        matrix = [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]
        try:
            decode_matrix(matrix)
        except QRDecodeError:
            pass


class TestOTPInputFuzz:
    @given(code=st.text(max_size=20))
    @settings(max_examples=150)
    def test_validate_handles_any_code_text(self, code):
        clock = VirtualClock(1_000_000.0)
        server = OTPServer(clock=clock, rng=random.Random(1))
        server.enroll_soft("alice")
        result = server.validate("alice", code)
        # Any garbage is a plain rejection, never an exception.
        assert result.status.value in ("ok", "reject")
