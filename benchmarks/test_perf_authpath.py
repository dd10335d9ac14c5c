"""PERF — throughput/latency of the authentication path.

The paper's implicit scalability claim: the back end must serve the whole
user base ("more than 10,000 accounts", "over half a million successful
log ins").  These benches measure each layer — the TOTP primitive, the
RADIUS codec, OTP-server validation, the full SSH→PAM→RADIUS→OTP login —
so the per-login budget is visible layer by layer.
"""

import random

from repro.crypto.hotp import hotp
from repro.crypto.totp import TOTPValidator, totp_at
from repro.qr import encode, decode_matrix, build_otpauth_uri
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    hide_password,
    new_request_authenticator,
)
from repro.ssh import SSHClient

SECRET = b"12345678901234567890"


class TestPrimitives:
    def test_bench_hotp(self, benchmark):
        counter = iter(range(10**9))
        code = benchmark(lambda: hotp(SECRET, next(counter)))
        assert len(code) == 6

    def test_bench_totp_validate(self, benchmark, auth_rig):
        validator = TOTPValidator(clock=auth_rig.clock)
        state = {"n": 0}

        def validate():
            # Fresh key id each round so replay protection never interferes.
            state["n"] += 1
            code = totp_at(SECRET, auth_rig.clock.now())
            return validator.validate(f"k{state['n']}", SECRET, code)

        assert benchmark(validate).ok

    def test_bench_totp_validate_worst_case_miss(self, benchmark, auth_rig):
        """A wrong code forces the full ±10-step window scan."""
        validator = TOTPValidator(clock=auth_rig.clock)
        outcome = benchmark(lambda: validator.validate("k", SECRET, "000000"))
        assert not outcome.ok


class TestRADIUSCodec:
    def test_bench_encode(self, benchmark):
        rng = random.Random(1)

        def build():
            auth = new_request_authenticator(rng)
            packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 1, auth)
            packet.add(Attr.USER_NAME, "alice")
            packet.add(Attr.USER_PASSWORD, hide_password("123456", b"secret", auth))
            packet.add(Attr.NAS_IDENTIFIER, "login1.stampede")
            return encode_packet(packet, b"secret")

        wire = benchmark(build)
        assert len(wire) > 20

    def test_bench_decode(self, benchmark):
        auth = new_request_authenticator(random.Random(2))
        packet = RADIUSPacket(PacketCode.ACCESS_REQUEST, 1, auth)
        packet.add(Attr.USER_NAME, "alice")
        packet.add(Attr.USER_PASSWORD, hide_password("123456", b"secret", auth))
        wire = encode_packet(packet, b"secret")
        decoded = benchmark(lambda: decode_packet(wire))
        assert decoded.get_str(Attr.USER_NAME) == "alice"


class TestOTPServerThroughput:
    def test_bench_validate_check(self, benchmark, auth_rig):
        otp = auth_rig.center.otp

        def validate():
            auth_rig.clock.advance(31)
            return otp.validate("alice", auth_rig.device.current_code())

        assert benchmark(validate).ok

    def test_bench_validate_reject(self, benchmark, auth_rig):
        result = benchmark(lambda: auth_rig.center.otp.validate("alice", "000000"))
        assert not result.ok


class TestFullLoginPath:
    def test_bench_password_token_login(self, benchmark, auth_rig):
        client = SSHClient("198.51.100.7")

        def login():
            auth_rig.clock.advance(31)
            result, _ = client.connect(
                auth_rig.node, "alice",
                password="pw", token=auth_rig.device.current_code,
            )
            return result

        assert benchmark(login).success

    def test_bench_exempt_login(self, benchmark, auth_rig):
        auth_rig.system.add_exemption(accounts="alice", origins="ALL")
        client = SSHClient("198.51.100.7")

        def login():
            result, _ = client.connect(auth_rig.node, "alice", password="pw")
            return result

        assert benchmark(login).success

    def test_bench_multiplexed_channel(self, benchmark, auth_rig):
        client = SSHClient("198.51.100.7", multiplex=True)
        result, _ = client.connect(
            auth_rig.node, "alice", password="pw", token=auth_rig.device.current_code
        )
        assert result.success

        def channel():
            result, _ = client.connect(auth_rig.node, "alice")
            return result

        assert benchmark(channel).success


class TestBackEndScale:
    def test_bench_validate_with_large_token_table(self, benchmark, auth_rig):
        """Validation latency must not degrade with enrollment count — the
        user_id index keeps the lookup O(1) at >10k-account scale."""
        otp = auth_rig.center.otp
        for i in range(5000):
            otp.enroll_soft(f"filler-{i:05d}")

        def validate():
            auth_rig.clock.advance(31)
            return otp.validate("alice", auth_rig.device.current_code())

        assert benchmark(validate).ok

    def test_bench_audit_query_large_log(self, benchmark, auth_rig):
        otp = auth_rig.center.otp
        uid = auth_rig.center.uid_of("alice")
        for _ in range(5000):
            otp.audit.record("validate", uid, "S", success=True)
        entries = benchmark(lambda: otp.audit.entries(user_id=uid, action="validate"))
        assert len(entries) >= 5000


class TestProvisioningPath:
    def test_bench_qr_encode(self, benchmark):
        uri = build_otpauth_uri(SECRET, "HPC-Center", "alice")
        qr = benchmark(lambda: encode(uri, level="M"))
        assert qr.version >= 1

    def test_bench_qr_decode(self, benchmark):
        uri = build_otpauth_uri(SECRET, "HPC-Center", "alice")
        qr = encode(uri, level="M")
        payload = benchmark(lambda: decode_matrix(qr.matrix))
        assert payload.decode() == uri

    def test_bench_soft_enrollment(self, benchmark, auth_rig):
        otp = auth_rig.center.otp
        state = {"n": 0}

        def enroll():
            state["n"] += 1
            return otp.enroll_soft(f"bench-user-{state['n']}")

        serial, secret = benchmark(enroll)
        assert len(secret) == 20
