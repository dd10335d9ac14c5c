"""RADIUS proxy chaining: secret translation, Proxy-State, failover."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.server import OTPServer
from repro.radius.client import AuthStatus, RADIUSClient
from repro.radius.proxy import RADIUSProxy
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric

HOME_SECRET = b"home-realm-secret"
EDGE_SECRET = b"edge-realm-secret"


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def setup(clock):
    otp = OTPServer(clock=clock, rng=random.Random(1))
    fabric = UDPFabric(rng=random.Random(2))
    homes = []
    for i in range(2):
        server = RADIUSServer(f"10.0.9.{i}:1812", fabric, otp)
        server.add_client("10.0.8.", HOME_SECRET)
        homes.append(server)
    proxy = RADIUSProxy(
        "10.0.8.1:1812",
        fabric,
        [s.address for s in homes],
        client_secret=EDGE_SECRET,
        upstream_secret=HOME_SECRET,
        rng=random.Random(3),
    )
    client = RADIUSClient(
        fabric, [proxy.address], EDGE_SECRET, "129.114.0.10", rng=random.Random(4)
    )
    return otp, fabric, homes, proxy, client


class TestForwarding:
    def test_accept_through_proxy(self, setup, clock):
        otp, _, _, proxy, client = setup
        _, secret = otp.enroll_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        response = client.authenticate("alice", device.current_code())
        assert response.ok
        assert proxy.forwarded == 1

    def test_reject_through_proxy(self, setup):
        otp, _, _, _, client = setup
        otp.enroll_soft("alice")
        assert client.authenticate("alice", "000000").status is AuthStatus.REJECT

    def test_password_retranslated_per_hop(self, setup, clock):
        """The proxy must re-hide the password under the upstream secret —
        the home server only knows the home realm's secret."""
        otp, _, homes, _, client = setup
        _, secret = otp.enroll_soft("bob")
        device = TOTPGenerator(secret=secret, clock=clock)
        assert client.authenticate("bob", device.current_code()).ok
        assert sum(s.handled for s in homes) == 1

    def test_proxy_state_stripped_from_reply(self, setup, clock):
        otp, _, _, _, client = setup
        _, secret = otp.enroll_soft("carol")
        device = TOTPGenerator(secret=secret, clock=clock)
        response = client.authenticate("carol", device.current_code())
        # The client-visible response carries no proxy internals.
        assert response.ok

    def test_upstream_failover(self, setup, clock):
        otp, fabric, homes, _, client = setup
        _, secret = otp.enroll_soft("dave")
        device = TOTPGenerator(secret=secret, clock=clock)
        fabric.set_down(homes[0].address)
        assert client.authenticate("dave", device.current_code()).ok

    def test_down_upstream_skipped_without_timeout(self, setup, clock):
        # The proxy consults the fabric's down-marks instead of burning a
        # timeout on a dead upstream every time round-robin lands on it.
        otp, fabric, homes, proxy, client = setup
        _, secret = otp.enroll_soft("frank")
        device = TOTPGenerator(secret=secret, clock=clock)
        fabric.set_down(homes[0].address)
        dropped_before = fabric.stats.dropped
        for _ in range(4):
            clock.advance(31)  # fresh TOTP step each login
            assert client.authenticate("frank", device.current_code()).ok
        assert proxy.skipped_down >= 2  # round-robin landed on the dead one
        # Skipping means no datagram was ever fired at the down upstream
        # (a send to a down address would count as a fabric drop).
        assert fabric.stats.dropped == dropped_before

    def test_all_upstreams_down(self, setup, clock):
        otp, fabric, homes, _, client = setup
        _, secret = otp.enroll_soft("eve")
        device = TOTPGenerator(secret=secret, clock=clock)
        for server in homes:
            fabric.set_down(server.address)
        response = client.authenticate("eve", device.current_code())
        assert response.status is AuthStatus.TIMEOUT

    def test_challenge_through_proxy(self, setup, clock):
        otp, _, _, _, client = setup
        otp.enroll_sms("fran", "5125551234")
        challenge = client.authenticate("fran", "")
        assert challenge.status is AuthStatus.CHALLENGE
        clock.advance(10)
        code = otp.sms.latest("5125551234").body.split()[-1]
        assert client.authenticate("fran", code, state=challenge.state).ok

    def test_requires_upstreams(self, setup):
        _, fabric, _, _, _ = setup
        with pytest.raises(ValueError):
            RADIUSProxy("x", fabric, [], EDGE_SECRET, HOME_SECRET)

    def test_wrong_client_secret_dropped(self, setup, clock):
        otp, fabric, _, proxy, _ = setup
        _, secret = otp.enroll_soft("gina")
        device = TOTPGenerator(secret=secret, clock=clock)
        liar = RADIUSClient(
            fabric, [proxy.address], b"not-the-edge-secret", "129.114.0.11",
            rng=random.Random(5),
        )
        response = liar.authenticate("gina", device.current_code())
        assert not response.ok
