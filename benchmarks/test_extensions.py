"""EXT — the conclusion's future-work features, measured.

Quantifies what geolocation + dynamic risk assessment buy on top of the
paper's deployment: how much of a credential-stuffing campaign each layer
stops, and what the honest-user false-positive cost is.
"""

import random

from repro.common.clock import VirtualClock
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMResult, PAMSession, PAMStack
from repro.pam.modules.exemption import MFAExemptionModule
from repro.policy import PolicyEngine, RiskEngine
from repro.policy.geo import GeoDatabase, GeoVelocityMonitor


class _StolenPasswordModule:
    """First factor the attacker already defeated (a reused password)."""

    name = "pam_unix_stub"

    def authenticate(self, session):
        return PAMResult.SUCCESS


class _TokenStub:
    """Second factor the attacker cannot defeat."""

    name = "token_stub"

    def authenticate(self, session):
        return (
            PAMResult.SUCCESS
            if session.items.get("has_device")
            else PAMResult.AUTH_ERR
        )


def build_stack(engine, acl, clock):
    stack = PAMStack("sshd")
    policy = PolicyEngine(exemptions=acl, clock=clock, risk=engine)
    stack.append("sufficient", MFAExemptionModule(policy))
    stack.append("requisite", _StolenPasswordModule())
    stack.append("requisite", _TokenStub())
    return stack


def run_campaign(with_risk: bool):
    """A credential-stuffing campaign against an *exempted* account — the
    worst case, because the baseline policy waives the second factor."""
    clock = VirtualClock.at("2016-11-15T14:00:00")
    acl = InMemoryExemptionACL("+ : gateway01 : ALL : ALL\n", clock=clock)
    engine = (
        RiskEngine(clock=clock, step_up_threshold=0.2) if with_risk else None
    )
    stack = build_stack(engine, acl, clock)
    if engine is not None:
        engine.record_success("gateway01", "129.114.50.1")  # the real origin
    rng = random.Random(1)
    breaches = 0
    attempts = 200
    for i in range(attempts):
        clock.advance(30)
        ip = f"{rng.randrange(1, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.7"
        session = PAMSession(
            username="gateway01", remote_ip=ip,
            conversation=ScriptedConversation(), clock=clock,
        )
        if stack.authenticate(session) is PAMResult.SUCCESS:
            breaches += 1
    return breaches, attempts


class TestRiskGateEffect:
    def test_campaign_with_and_without_risk(self):
        without, attempts = run_campaign(with_risk=False)
        with_risk, _ = run_campaign(with_risk=True)
        print(f"\n    stolen-password campaign vs an exempted account "
              f"({attempts} attempts):")
        print(f"      baseline policy:        {without} breaches")
        print(f"      with risk step-up:      {with_risk} breaches")
        # The static exemption lets every attempt through; the risk engine's
        # novel-origin step-up demands the token the attacker lacks.
        assert without == attempts
        assert with_risk == 0

    def test_bench_risk_assessment(self, benchmark):
        clock = VirtualClock.at("2016-11-15T14:00:00")
        engine = RiskEngine(clock=clock)
        engine.record_success("alice", "129.114.0.1")
        decision = benchmark(lambda: engine.assess("alice", "203.0.113.9"))
        assert decision is not None


class TestGeoVelocityEffect:
    def test_impossible_travel_detection_rates(self):
        """Detection of hijacked sessions vs false alarms on travelers."""
        geo = GeoDatabase.with_sample_data()
        clock = VirtualClock.at("2016-11-15T14:00:00")
        monitor = GeoVelocityMonitor(geo, clock)
        # Hijack: Austin login, Beijing 5 minutes later x 50 users.
        hijacks_flagged = 0
        for i in range(50):
            user = f"victim{i}"
            monitor.observe(user, "129.114.0.1")
            clock.advance(300)
            if not monitor.observe(user, "203.0.113.9").plausible:
                hijacks_flagged += 1
        # Travel: Austin -> Geneva with a 12-24 h gap x 50 users.
        rng = random.Random(2)
        travelers_flagged = 0
        for i in range(50):
            user = f"traveler{i}"
            monitor.observe(user, "129.114.0.1")
            clock.advance(3600 * rng.uniform(12, 24))
            if not monitor.observe(user, "192.0.2.9").plausible:
                travelers_flagged += 1
        print(f"\n    geo-velocity: {hijacks_flagged}/50 hijacks flagged, "
              f"{travelers_flagged}/50 travelers falsely flagged")
        assert hijacks_flagged == 50
        assert travelers_flagged == 0

    def test_bench_geo_lookup(self, benchmark):
        geo = GeoDatabase.with_sample_data()
        point = benchmark(lambda: geo.lookup("129.114.200.7"))
        assert point.city == "Austin"

    def test_bench_velocity_observe(self, benchmark):
        geo = GeoDatabase.with_sample_data()
        clock = VirtualClock.at("2016-11-15T14:00:00")
        monitor = GeoVelocityMonitor(geo, clock)
        monitor.observe("alice", "129.114.0.1")

        def observe():
            clock.advance(60)
            return monitor.observe("alice", "198.51.100.9")

        assert benchmark(observe).plausible
