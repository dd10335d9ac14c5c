"""Circuit breaker and health tracking for the RADIUS client.

Covers the state machine directly (HealthTracker) and through the wire
(RADIUSClient against a real in-process farm), including the regression
the satellite demands: a recovered server is probed and re-admitted
within one probe interval even while its peers are healthy.  The
breaker's thresholds are module constants of ``repro.common.resilience``;
a test that needs other values sets them with ``tune``.
"""

import random

import pytest

from repro.common import resilience
from repro.common.clock import VirtualClock
from repro.common.resilience import CircuitState, HealthTracker
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.server import OTPServer
from repro.radius import client as client_module
from repro.radius.client import AuthStatus, RADIUSClient
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric

SECRET = b"breaker-secret"


@pytest.fixture
def tune(monkeypatch):
    """Set ``repro.common.resilience`` constants for one test."""

    def tune(**values):
        for name, value in values.items():
            monkeypatch.setattr(resilience, name, value)

    return tune


class TestHealthTracker:
    def test_opens_after_threshold(self):
        tracker = HealthTracker(["a"])  # FAILURE_THRESHOLD = 3
        for i in range(2):
            tracker.on_failure("a", now=float(i))
            assert tracker.state("a") is CircuitState.CLOSED
        tracker.on_failure("a", now=2.0)
        assert tracker.state("a") is CircuitState.OPEN

    def test_success_resets_consecutive_failures(self):
        tracker = HealthTracker(["a"])
        tracker.on_failure("a", 0.0)
        tracker.on_failure("a", 1.0)
        tracker.on_success("a", 2.0)
        tracker.on_failure("a", 3.0)
        tracker.on_failure("a", 4.0)
        assert tracker.state("a") is CircuitState.CLOSED

    def test_probe_due_after_interval(self, tune):
        tune(FAILURE_THRESHOLD=1)
        tracker = HealthTracker(["a"])  # PROBE_INTERVAL = 30 s
        tracker.on_failure("a", 10.0)
        assert tracker.state("a") is CircuitState.OPEN
        assert not tracker.probe_due("a", 39.9)
        assert tracker.probe_due("a", 40.0)

    def test_failed_probe_reopens_with_fresh_timer(self, tune):
        tune(FAILURE_THRESHOLD=1)
        tracker = HealthTracker(["a"])
        tracker.on_failure("a", 0.0)
        tracker.begin_probe("a", 30.0)
        assert tracker.state("a") is CircuitState.HALF_OPEN
        tracker.on_failure("a", 31.0)
        assert tracker.state("a") is CircuitState.OPEN
        # Timer restarted at 31 AND the interval doubled (probe backoff).
        assert not tracker.probe_due("a", 61.0)
        assert tracker.probe_due("a", 91.0)

    def test_probe_schedule_backs_off_exponentially(self, tune):
        tune(FAILURE_THRESHOLD=1, PROBE_INTERVAL_MAX=100.0)
        tracker = HealthTracker(["a"])
        tracker.on_failure("a", 0.0)
        now, waits = 0.0, []
        for _ in range(4):
            step = 0.0
            while not tracker.probe_due("a", now + step):
                step += 1.0
            waits.append(step)
            now += step
            tracker.begin_probe("a", now)
            tracker.on_failure("a", now)
        assert waits == [30.0, 60.0, 100.0, 100.0]  # doubled, then capped
        # One success resets the schedule to the base interval.
        tracker.begin_probe("a", now)
        tracker.on_success("a", now)
        tracker.on_failure("a", now)  # re-open (threshold 1)
        assert not tracker.probe_due("a", now + 29.0)
        assert tracker.probe_due("a", now + 30.0)

    def test_probes_outlive_a_server_dead_for_days(self, tune):
        """1,100 failed probes are ~73 h of one dead server at the capped
        240 s interval.  The wait stopped growing at the cap, so the count
        behind it must stop too: ``2.0 ** 1024`` overflowed a float, and
        from then on every authenticate on the node raised."""
        tune(FAILURE_THRESHOLD=1)
        clock = VirtualClock.at("2016-10-05T09:00:00")
        dead = "10.0.7.9:1812"  # nothing listens there
        client = RADIUSClient(
            UDPFabric(rng=random.Random(6)), [dead], SECRET, "10.1.1.5",
            rng=random.Random(7), clock=clock,
        )  # fmt: skip
        tracker = client.health
        tracker.on_failure(dead, clock.now())
        for _ in range(1100):
            clock.advance(resilience.PROBE_INTERVAL_MAX)
            assert tracker.probe_due(dead, clock.now())
            tracker.begin_probe(dead, clock.now())
            tracker.on_failure(dead, clock.now())
        assert not tracker.probe_due(dead, clock.now())
        clock.advance(resilience.PROBE_INTERVAL_MAX)
        response = client.authenticate("grace", "123456")
        assert response.status is AuthStatus.TIMEOUT

    def test_successful_probe_closes(self, tune):
        tune(FAILURE_THRESHOLD=1)
        tracker = HealthTracker(["a"])
        tracker.on_failure("a", 0.0)
        tracker.begin_probe("a", 30.0)
        tracker.on_success("a", 30.5)
        assert tracker.state("a") is CircuitState.CLOSED
        health = tracker.health("a")
        assert health.consecutive_failures == 0
        assert health.successes == 1

    def test_score_is_ewma(self, tune):
        tune(HEALTH_DECAY=0.5, FAILURE_THRESHOLD=10)
        tracker = HealthTracker(["a"])
        assert tracker.health("a").score == 1.0
        tracker.on_failure("a", 0.0)
        assert tracker.health("a").score == 0.5
        tracker.on_success("a", 1.0)
        assert tracker.health("a").score == 0.75

    def test_snapshot_counts_every_transition(self, tune):
        tune(FAILURE_THRESHOLD=1, HEALTH_DECAY=0.5)
        tracker = HealthTracker(["a", "b"])
        tracker.on_failure("a", 0.0)  # closed -> open
        tracker.begin_probe("a", 30.0)  # open -> half-open
        tracker.begin_probe("a", 30.0)  # no change: not a transition
        tracker.on_success("a", 30.5)  # half-open -> closed
        assert tracker.health("a").transitions == 3
        assert tracker.snapshot() == {
            "a": {
                "state": "closed",
                "score": 0.75,
                "successes": 1,
                "failures": 1,
                "consecutive_failures": 0,
                "transitions": 3,
            },
            "b": {
                "state": "closed",
                "score": 1.0,
                "successes": 0,
                "failures": 0,
                "consecutive_failures": 0,
                "transitions": 0,
            },
        }

    def test_constants_hold_their_invariants(self):
        """What the deleted constructor checks rejected: a probe wait that
        starts above its cap, or a decay that never forgets."""
        assert resilience.FAILURE_THRESHOLD >= 1
        assert resilience.PROBE_BACKOFF >= 1.0
        assert 0.0 <= resilience.PROBE_INTERVAL <= resilience.PROBE_INTERVAL_MAX
        assert 0.0 <= resilience.HEALTH_DECAY < 1.0


@pytest.fixture
def rig():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    otp = OTPServer(clock=clock, rng=random.Random(5))
    fabric = UDPFabric(rng=random.Random(6))
    farm = []
    for i in range(3):
        server = RADIUSServer(f"10.0.7.{i}:1812", fabric, otp)
        server.add_client("10.", SECRET)
        farm.append(server)
    client = RADIUSClient(
        fabric,
        [s.address for s in farm],
        SECRET,
        "10.1.1.5",
        rng=random.Random(7),
        clock=clock,
    )  # the breaker's defaults: 3 failures open, probe after 30 s
    devices = {}
    for user in ("grace", "heidi"):
        _, secret = otp.enroll_soft(user)
        devices[user] = TOTPGenerator(secret=secret, clock=clock)
    return clock, fabric, farm, client, devices


class TestClientCircuits:
    def test_dead_server_ejected_and_ordered_last(self, rig):
        clock, fabric, farm, client, devices = rig
        fabric.set_down(farm[0].address)
        assert client.authenticate("grace", devices["grace"].current_code()).ok
        assert client.health.state(farm[0].address) is CircuitState.OPEN
        # While the circuit cools, calls spend nothing on the dead server
        # (a different user, so TOTP replay protection stays out of the way).
        attempts_before = client.per_server_attempts[farm[0].address]
        clock.advance(4)  # well inside the probe interval
        assert client.authenticate("heidi", devices["heidi"].current_code()).ok
        assert client.per_server_attempts[farm[0].address] == attempts_before

    def test_recovered_server_readmitted_within_probe_interval(self, rig):
        # The satellite regression: peers stay healthy the whole time, so
        # only the half-open probe path can re-admit the recovered server.
        clock, fabric, farm, client, devices = rig
        dead = farm[0].address
        fabric.set_down(dead)
        assert client.authenticate("grace", devices["grace"].current_code()).ok
        assert client.health.state(dead) is CircuitState.OPEN

        fabric.set_down(dead, False)  # the server comes back
        clock.advance(31)  # one probe interval passes (and a fresh TOTP step)
        assert client.authenticate("grace", devices["grace"].current_code()).ok
        assert client.health.state(dead) is CircuitState.CLOSED
        # The probe actually hit the recovered server, not just a peer.
        assert client.per_server_attempts[dead] >= 4

    def test_total_outage_recovery_not_invisible(self, rig):
        # All circuits open, then the farm returns: the next call inside
        # the cooling window still reaches a server (last-resort attempts).
        clock, fabric, farm, client, devices = rig
        for server in farm:
            fabric.set_down(server.address)
        assert not client.authenticate("grace", devices["grace"].current_code()).ok
        assert all(
            client.health.state(s.address) is CircuitState.OPEN for s in farm
        )
        for server in farm:
            fabric.set_down(server.address, False)
        clock.advance(5)  # well inside the probe interval; code not consumed
        assert client.authenticate("grace", devices["grace"].current_code()).ok

    def test_blind_mode_keeps_paper_behaviour(self, rig):
        clock, fabric, farm, _, devices = rig
        blind = RADIUSClient(
            fabric,
            [s.address for s in farm],
            SECRET,
            "10.1.1.6",
            rng=random.Random(8),
            clock=clock,
            health_aware=False,
        )
        device = devices["grace"]
        fabric.set_down(farm[0].address)
        # Four calls walk the rotation all the way around: blind round-robin
        # burns a full retry budget on the dead server every time the
        # rotation starts there, however long it has been down.
        for _ in range(4):
            assert blind.authenticate("grace", device.current_code()).ok
            clock.advance(31)
        assert blind.per_server_attempts[farm[0].address] == 2 * client_module.RETRIES
