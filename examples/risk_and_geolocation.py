#!/usr/bin/env python3
"""Growing the infrastructure: geolocation + dynamic risk assessment.

The paper's conclusion says the software "is ready to be grown to
incorporate new features including geolocation services, dynamic risk
assessment, or biometric security."  This example grows it: the Figure-1
PAM stack over a policy engine that carries a risk engine, whose
geo-velocity monitor makes impossible travel one more risk signal,
demonstrating impossible-travel detection, watchlists, and step-up
authentication that overrides an exemption when a service account shows
up from an origin it has never used.

Run:  python examples/risk_and_geolocation.py
"""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.pam.acl import InMemoryExemptionACL
from repro.pam.conversation import ScriptedConversation
from repro.pam.framework import PAMSession, PAMStack, PAMResult
from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.token import MFATokenModule
from repro.pam.modules.unix_password import UnixPasswordModule
from repro.policy import PolicyEngine, RiskEngine
from repro.policy.geo import GeoDatabase, GeoVelocityMonitor


def attempt(stack, clock, username, ip, responses):
    session = PAMSession(
        username=username, remote_ip=ip,
        conversation=ScriptedConversation(list(responses)), clock=clock,
    )
    result = stack.authenticate(session)
    return result, session


def main() -> None:
    clock = VirtualClock.at("2016-11-15T14:00:00")
    center = MFACenter(clock=clock, rng=random.Random(13))
    center.add_system("stampede")

    geo = GeoDatabase.with_sample_data()
    engine = RiskEngine(
        clock, geo_monitor=GeoVelocityMonitor(geo, clock), step_up_threshold=0.2
    )
    acl = InMemoryExemptionACL("+ : sciencegw : ALL : ALL\n", clock=clock)
    # One engine for both policy-backed modules: the risk verdict tightens
    # the ACL (step-up withholds the waiver) and the ladder (deny refuses).
    policy = PolicyEngine(exemptions=acl, clock=clock, risk=engine)

    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    center.create_user("sciencegw", password="gw-pw")

    # Figure 1's stack: password -> exemption -> token, both policy-backed
    # modules asking the one engine (and so the one risk verdict).
    stack = PAMStack("sshd")
    stack.append("requisite", UnixPasswordModule(center.identity))
    stack.append("sufficient", MFAExemptionModule(policy))
    stack.append("requisite", MFATokenModule(
        ldap=center.identity.ldap,
        radius=center.new_radius_client("10.3.1.5"),
        policy=policy,
    ))

    # --- 1. Normal login from Austin ---------------------------------------
    result, session = attempt(stack, clock, "alice", "129.114.7.7",
                              ["pw", device.current_code()])
    engine.record_success("alice", "129.114.7.7")
    print(f"Austin login: {result.value}  "
          f"(risk={session.items['risk_score']:.2f})")

    # --- 2. Impossible travel: Beijing ten minutes later --------------------
    clock.advance(600)
    result, session = attempt(stack, clock, "alice", "203.0.113.9",
                              ["pw", device.current_code()])
    print(f"Beijing 10 min later: {result.value}  "
          f"(risk={session.items['risk_score']:.2f}, "
          f"signals={session.items['risk_signals']})")
    for message in session.conversation.messages():
        print("   server said:", message)
    assert "impossible_travel" in session.items["risk_signals"]

    # --- 3. A real itinerary: Geneva 14 hours later --------------------------
    clock.advance(14 * 3600)
    result, session = attempt(stack, clock, "alice", "192.0.2.10",
                              ["pw", device.current_code()])
    print(f"Geneva 14 h later: {result.value}  "
          f"(signals={session.items['risk_signals']} — a plane, not a hijack)")

    # --- 4. Watchlisted network + failure burst -> outright deny -------------
    clock.advance(3600)
    engine.add_watchlist("100.64.0.0/10")
    for _ in range(3):
        engine.record_failure("alice")  # a credential-stuffing burst
    result, session = attempt(stack, clock, "alice", "100.64.1.1",
                              ["pw", device.current_code()])
    print(f"\nwatchlisted net after 3 failures: {result.value}  "
          f"(risk={session.items['risk_score']:.2f}, "
          f"signals={session.items['risk_signals']})")

    # --- 5. Step-up: the exempted gateway from a novel origin ----------------
    engine.record_success("sciencegw", "129.114.50.1")
    clock.advance(3600)
    result, session = attempt(stack, clock, "sciencegw", "129.114.50.1", ["gw-pw"])
    print(f"\ngateway from its usual origin: {result.value}  "
          f"(exempt={session.items.get('mfa_exempt', False)})")
    clock.advance(3600)
    result, session = attempt(stack, clock, "sciencegw", "198.51.100.77",
                              ["gw-pw", "000000"])
    print(f"gateway from a NOVEL origin: {result.value}  "
          f"(step_up={session.items.get('risk_step_up', False)} -> "
          f"exemption suppressed, token demanded)")
    assert result is PAMResult.AUTH_ERR  # no valid token -> denied


if __name__ == "__main__":
    main()
