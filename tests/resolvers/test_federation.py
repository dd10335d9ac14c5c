"""Federated bearer assertions: issue, verify, replay-proof, resolver map."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.resolvers import (
    AssertionInvalid,
    AttestationIssuer,
    AttestationVerifier,
    FederatedResolver,
)
from repro.resolvers.federation import split_assertion_code

KEY = b"0123456789abcdef0123456789abcdef"
OTHER_KEY = b"fedcba9876543210fedcba9876543210"


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def issuer(clock):
    return AttestationIssuer(
        "partner.edu", KEY, clock=clock, rng=random.Random(7)
    )


@pytest.fixture
def verifier(clock):
    v = AttestationVerifier(clock=clock)
    v.trust("partner.edu", KEY)
    return v


class TestIssuer:
    def test_assertion_format(self, issuer):
        assertion = issuer.issue("alice")
        prefix, body, signature = assertion.split(".")
        assert prefix == "FED1"
        assert len(signature) == 64 and int(signature, 16) >= 0
        assert issuer.issued == 1

    def test_assertion_is_the_one_a_home_site_already_mints(self, issuer, verifier):
        # Minted by the ``hmac.new(...).hexdigest()`` implementation: a home
        # site that has not upgraded signs exactly this, and it must verify.
        assertion = (
            "FED1.eyJhdWQiOiJocGMtY2VudGVyIiwiZXhwIjoxNDc1NjU4MzAwLjAsImlhdCI6MTQ3"
            "NTY1ODAwMC4wLCJub25jZSI6IjY1MTMyNzBlMjY5ZTBkMzdmMmE3NGRlNDUyZTZiNDM4Iiwi"
            "c2l0ZSI6InBhcnRuZXIuZWR1Iiwic3ViIjoiYWxpY2UifQ."
            "c735da5b6d98923e3a8958821162197e3efa295c223eda4fd1ce9ff7d7c628bd"
        )
        assert issuer.issue("alice") == assertion
        assert verifier.verify(assertion)["sub"] == "alice"

    def test_short_key_rejected(self, clock):
        with pytest.raises(ValueError, match=">= 16 bytes"):
            AttestationIssuer("partner.edu", b"short", clock=clock)

    def test_bad_settings_rejected(self, clock):
        with pytest.raises(ValueError, match="non-empty"):
            AttestationIssuer("", KEY, clock=clock)


class TestVerifier:
    def test_round_trip_returns_payload(self, issuer, verifier):
        payload = verifier.verify(issuer.issue("alice"))
        assert payload["sub"] == "alice"
        assert payload["site"] == "partner.edu"
        assert payload["aud"] == "hpc-center"
        assert verifier.verified == 1 and verifier.rejected == 0

    def test_replay_blocked_exactly_once_used(self, issuer, verifier):
        assertion = issuer.issue("alice")
        verifier.verify(assertion)
        with pytest.raises(AssertionInvalid, match="replayed"):
            verifier.verify(assertion)
        assert verifier.nonces.replays_blocked == 1

    def test_expired_assertion_rejected(self, issuer, verifier, clock):
        assertion = issuer.issue("alice", ttl=60.0)
        clock.advance(61.0)
        with pytest.raises(AssertionInvalid, match="expired"):
            verifier.verify(assertion)

    def test_forged_signature_rejected(self, clock, verifier):
        rogue = AttestationIssuer(
            "partner.edu", OTHER_KEY, clock=clock, rng=random.Random(8)
        )
        with pytest.raises(AssertionInvalid, match="signature invalid"):
            verifier.verify(rogue.issue("alice"))

    def test_unknown_home_site_rejected(self, clock, verifier):
        stranger = AttestationIssuer(
            "stranger.org", KEY, clock=clock, rng=random.Random(9)
        )
        with pytest.raises(AssertionInvalid, match="unknown home site"):
            verifier.verify(stranger.issue("alice"))

    def test_audience_mismatch_rejected(self, issuer, verifier):
        with pytest.raises(AssertionInvalid, match="audience mismatch"):
            verifier.verify(issuer.issue("alice", audience="some-other-center"))

    def test_malformed_assertion_rejected(self, verifier):
        for junk in ("", "FED1", "FED1.!!!.sig", "TOK9.e30.00", "a.b.c.d.e"):
            with pytest.raises(AssertionInvalid, match="malformed"):
                verifier.verify(junk)

    def test_tampered_body_fails_signature_not_nonce(self, issuer, verifier):
        """The nonce burns *last*: a tampered copy of a live assertion
        must not consume the victim's nonce."""
        assertion = issuer.issue("alice")
        prefix, body, signature = assertion.split(".")
        tampered = f"{prefix}.{body[:-2]}AA.{signature}"
        with pytest.raises(AssertionInvalid):
            verifier.verify(tampered)
        # The genuine assertion still validates: its nonce was untouched.
        assert verifier.verify(assertion)["sub"] == "alice"

    def test_key_rotation_invalidates_old_issuer(self, issuer, verifier):
        verifier.trust("partner.edu", OTHER_KEY)
        with pytest.raises(AssertionInvalid, match="signature invalid"):
            verifier.verify(issuer.issue("alice"))

    def test_trusted_sites_listing(self, verifier):
        verifier.trust("other.org", OTHER_KEY)
        assert verifier.trusted_sites() == ["other.org", "partner.edu"]


class TestStepUpCodeSplit:
    def test_bare_assertion_passes_through(self, issuer):
        assertion = issuer.issue("alice")
        assert split_assertion_code(assertion) == (assertion, None)

    def test_fourth_dot_part_is_the_step_up_code(self, issuer):
        assertion = issuer.issue("alice")
        assert split_assertion_code(f"{assertion}.123456") == (assertion, "123456")


class TestFederatedResolver:
    def test_maps_principal_to_local_uid(self):
        resolver = FederatedResolver()
        resolver.map("alice@partner.edu", "uid0042")
        found = resolver.resolve("alice@partner.edu")
        assert found.uid == "uid0042"
        assert found.federated is True
        assert found.home_site == "partner.edu" and found.realm == "partner.edu"

    def test_principal_needs_a_realm(self):
        with pytest.raises(ValueError, match="needs a realm"):
            FederatedResolver().map("alice", "uid0042")

    def test_unmap_turns_hit_into_miss(self):
        resolver = FederatedResolver()
        resolver.map("alice@partner.edu", "uid0042")
        resolver.unmap("alice@partner.edu")
        assert resolver.resolve("alice@partner.edu") is None
        assert len(resolver) == 0
