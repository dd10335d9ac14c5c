"""End-to-end federated logins through the full MFACenter deployment.

A partner-site user is admitted via ``pair_federated``, logs in with a
home-site bearer assertion, and the whole policy surface applies: replay
and forgery are counted failures, risk-driven STEP_UP demands the local
second factor, and a resolver outage is an explicit REJECT (never
"unknown user") with the in-process directory as the failover target.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.common.results import ValidateStatus
from repro.core import MFACenter
from repro.directory.identity import IdentityBackend
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.otpserver.server import OTPServer
from repro.resolvers import (
    AttestationIssuer,
    LDAPSimResolver,
    ResolverChain,
    ResolverConfig,
)

HOME_IP = "198.51.100.7"
ATTACKER_IP = "203.0.113.9"
PRINCIPAL = "ali@partner.edu"
STEP_UP_CODE = "123456"


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T12:00:00")


@pytest.fixture
def center(clock):
    center = MFACenter(
        clock=clock,
        rng=random.Random(0xFED),
        resolvers=ResolverConfig(use_ldap=True),
        risk=True,
    )
    center.add_system("stampede", mode="full")
    center.create_user("alice")
    center.create_user("bob")
    return center


@pytest.fixture
def issuer(center):
    return center.pair_federated("alice", PRINCIPAL, step_up_code=STEP_UP_CODE)


class TestFederatedLogin:
    def test_fresh_assertion_validates(self, center, issuer):
        result = center.otp.validate(PRINCIPAL, issuer.issue("ali"), source=HOME_IP)
        assert result.ok
        assert result.serial.startswith("LSFD")

    def test_principal_probed_before_pairing_resolves_at_once(self, center):
        """The unrouted-realm miss is negative-cached; pairing drops it."""
        assert center.otp.validate(PRINCIPAL, "FED1.x.y").reason == "unknown user"
        issuer = center.pair_federated("alice", PRINCIPAL)
        assert center.otp.validate(PRINCIPAL, issuer.issue("ali"), source=HOME_IP).ok

    def test_replayed_assertion_rejected_and_counted(self, center, issuer):
        assertion = issuer.issue("ali")
        assert center.otp.validate(PRINCIPAL, assertion, source=HOME_IP).ok
        replay = center.otp.validate(PRINCIPAL, assertion, source=ATTACKER_IP)
        assert replay.status is ValidateStatus.REJECT
        assert replay.reason == "assertion replayed"
        # The replay walked through ApplyOutcome like any wrong code.
        (token,) = center.otp.user_tokens(center.uid_of("alice"))
        assert token.failcount == 1

    def test_forged_assertion_rejected(self, center, issuer, clock):
        rogue = AttestationIssuer(
            "partner.edu", b"A" * 32, clock=clock, rng=random.Random(13)
        )
        result = center.otp.validate(PRINCIPAL, rogue.issue("ali"), source=ATTACKER_IP)
        assert result.status is ValidateStatus.REJECT
        assert result.reason == "assertion signature invalid"

    def test_subject_mismatch_rejected(self, center, issuer):
        result = center.otp.validate(PRINCIPAL, issuer.issue("mallory"), source=HOME_IP)
        assert result.status is ValidateStatus.REJECT
        assert result.reason == "assertion subject mismatch"

    def test_unknown_principal_fails_closed(self, center, issuer):
        result = center.otp.validate(
            "ghost@unknown.org", issuer.issue("ghost"), source=HOME_IP
        )
        assert result.status is ValidateStatus.NO_TOKEN
        assert result.reason == "unknown user"


class TestRiskStepUp:
    def _arm_risk(self, center, issuer):
        """A clean success from home arms novel-origin for later logins."""
        center.risk_stage.add_watchlist("203.0.113.0/24")
        assert center.otp.validate(PRINCIPAL, issuer.issue("ali"), source=HOME_IP).ok

    def test_risky_login_demands_local_second_factor(self, center, issuer):
        self._arm_risk(center, issuer)
        bare = center.otp.validate(PRINCIPAL, issuer.issue("ali"), source=ATTACKER_IP)
        assert bare.status is ValidateStatus.REJECT
        assert bare.reason == "risk step-up: local second factor required"

    def test_assertion_plus_step_up_code_satisfies_challenge(self, center, issuer):
        self._arm_risk(center, issuer)
        stepped = center.otp.validate(
            PRINCIPAL,
            f"{issuer.issue('ali')}.{STEP_UP_CODE}",
            source=ATTACKER_IP,
        )
        assert stepped.ok

    def test_wrong_step_up_code_rejected(self, center, issuer):
        self._arm_risk(center, issuer)
        wrong = center.otp.validate(
            PRINCIPAL, f"{issuer.issue('ali')}.000000", source=ATTACKER_IP
        )
        assert wrong.status is ValidateStatus.REJECT
        assert wrong.reason == "risk step-up: local second factor required"


class TestResolverFailover:
    def test_ldap_outage_fails_over_to_directory(self, center):
        center.pair_training("bob", "424242")
        chain = center.resolver_chain
        assert center.otp.validate("bob", "424242", source=HOME_IP).ok
        chain.resolver("ldap").set_outage(True)
        chain.invalidate()
        result = center.otp.validate("bob", "424242", source=HOME_IP)
        assert result.ok
        assert chain.failovers >= 1

    def test_all_resolvers_down_is_reject_not_unknown_user(self, clock):
        server = OTPServer(clock=clock, rng=random.Random(1))
        chain = ResolverChain(clock=clock)
        ldap = LDAPSimResolver(IdentityBackend().ldap, clock=clock)
        chain.register(ldap)
        ldap.set_outage(True)
        server.attach_resolvers(chain)
        result = server.validate("alice", "000000")
        assert result.status is ValidateStatus.REJECT
        assert result.reason == "identity resolvers unavailable"

    def test_federation_without_verifier_rejects(self, clock):
        server = OTPServer(clock=clock, rng=random.Random(2))
        server.enroll_federated("uid0001", PRINCIPAL)
        result = server.validate("uid0001", "FED1.e30.00")
        assert result.status is ValidateStatus.REJECT
        assert result.reason == "federation not configured"


class TestAdminView:
    def test_admin_resolvers_route_reports_chain(self, center, issuer):
        api = AdminAPI(center.otp, rng=random.Random(3))
        api.add_admin("portal", "s3cret")
        client = AdminAPIClient(api, "portal", "s3cret", rng=random.Random(4))
        center.otp.validate(PRINCIPAL, issuer.issue("ali"), source=HOME_IP)
        body = client.call("GET", "/admin/status", {"section": "resolvers"})
        assert body == center.resolver_chain.snapshot()
        assert body == client.call("GET", "/admin/status")["resolvers"]
        assert body["configured"] is True
        assert body["realms"]["partner.edu"] == ["federated"]
        assert set(body["realms"]["(default)"]) == {"ldap", "directory"}
        assert body["resolvers"]["federated"]["stats"]["hits"] == 1
        assert body["resolvers"]["ldap"]["state"] == "closed"

    def test_bare_server_has_no_resolvers_section(self, clock):
        """No chain attached: the section is absent (a 404), not a stub."""
        server = OTPServer(clock=clock, rng=random.Random(5))
        api = AdminAPI(server, rng=random.Random(6))
        api.add_admin("portal", "s3cret")
        client = AdminAPIClient(api, "portal", "s3cret", rng=random.Random(7))
        assert "resolvers" not in client.call("GET", "/admin/status")
        with pytest.raises(ValidationError, match="no status section 'resolvers'"):
            client.call("GET", "/admin/status", {"section": "resolvers"})
