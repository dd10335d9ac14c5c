"""Geolocation: database, haversine, impossible travel, PAM via risk."""

import pytest

from repro.common.clock import VirtualClock
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession
from repro.pam.modules.token import MFATokenModule
from repro.policy import PolicyEngine, RiskEngine
from repro.policy.geo import GeoDatabase, GeoPoint, GeoVelocityMonitor

AUSTIN = GeoPoint(30.27, -97.74, "US", "Austin")
GENEVA = GeoPoint(46.23, 6.05, "CH", "Geneva")
BEIJING = GeoPoint(39.90, 116.41, "CN", "Beijing")


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def geo():
    return GeoDatabase.with_sample_data()


class TestGeoPoint:
    def test_haversine_austin_geneva(self):
        # Great-circle Austin <-> Geneva is about 8,600 km.
        assert AUSTIN.distance_km(GENEVA) == pytest.approx(8600, rel=0.05)

    def test_distance_symmetric(self):
        assert AUSTIN.distance_km(BEIJING) == pytest.approx(
            BEIJING.distance_km(AUSTIN)
        )

    def test_zero_distance(self):
        assert AUSTIN.distance_km(AUSTIN) == 0.0


class TestGeoDatabase:
    def test_lookup(self, geo):
        assert geo.lookup("129.114.3.4").city == "Austin"
        assert geo.lookup("192.0.2.99").country == "CH"

    def test_unmapped_returns_none(self, geo):
        assert geo.lookup("8.8.8.8") is None

    def test_longest_prefix_wins(self):
        db = GeoDatabase()
        db.add_range("10.0.0.0/8", AUSTIN)
        db.add_range("10.5.0.0/16", GENEVA)
        assert db.lookup("10.5.1.1").city == "Geneva"
        assert db.lookup("10.6.1.1").city == "Austin"


class TestGeoVelocity:
    def test_first_login_always_plausible(self, geo, clock):
        monitor = GeoVelocityMonitor(geo, clock)
        assert monitor.observe("alice", "192.0.2.1").plausible

    def test_same_city_plausible(self, geo, clock):
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        clock.advance(60)
        verdict = monitor.observe("alice", "198.51.100.9")  # also Austin
        assert verdict.plausible

    def test_impossible_travel_flagged(self, geo, clock):
        """Austin -> Beijing in ten minutes is not a flight."""
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        clock.advance(600)
        verdict = monitor.observe("alice", "203.0.113.9")
        assert not verdict.plausible
        assert verdict.speed_kmh > 10_000
        assert verdict.from_city == "Austin" and verdict.to_city == "Beijing"

    def test_plausible_flight(self, geo, clock):
        """Austin -> Geneva in 14 hours is an ordinary itinerary."""
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        clock.advance(14 * 3600)
        assert monitor.observe("alice", "192.0.2.9").plausible

    def test_unmapped_origin_skipped(self, geo, clock):
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        clock.advance(60)
        assert monitor.observe("alice", "8.8.8.8").plausible

    def test_per_user_state(self, geo, clock):
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        clock.advance(60)
        # Bob's first observation is independent of Alice's history.
        assert monitor.observe("bob", "203.0.113.9").plausible

    def test_forget(self, geo, clock):
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")
        monitor.forget("alice")
        clock.advance(60)
        assert monitor.observe("alice", "203.0.113.9").plausible


class TestImpossibleTravelInPAM:
    """Impossible travel reaches PAM as a risk signal of the one policy
    engine, so the Figure-1 token module refuses it before any prompt."""

    def test_impossible_travel_denied_with_message(self, geo, clock):
        engine = RiskEngine(clock, geo_monitor=GeoVelocityMonitor(geo, clock))
        module = MFATokenModule(
            ldap=None, radius=None, policy=PolicyEngine(clock=clock, risk=engine)
        )

        # An Austin login the engine scored and saw succeed ...
        assert engine.evaluate("alice", "129.114.0.1").signals == []
        engine.record_success("alice", "129.114.0.1")
        # ... then Beijing ten minutes later.
        clock.advance(600)
        s = PAMSession(
            username="alice", remote_ip="203.0.113.9",
            conversation=ScriptedConversation(), clock=clock,
        )
        assert module.authenticate(s) is PAMResult.AUTH_ERR
        assert "impossible_travel" in s.items["risk_signals"]
        assert s.conversation.messages() == ["access denied by policy"]


class TestClockBinding:
    """The monitor judges travel on the clock it is built on."""

    def test_clock_is_required(self, geo):
        with pytest.raises(TypeError):
            GeoVelocityMonitor(geo)
