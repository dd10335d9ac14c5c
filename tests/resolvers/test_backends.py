"""Concrete resolver backends: directory and LDAP sim."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.common.results import ValidateStatus
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.directory.identity import IdentityBackend
from repro.directory.ldap import LDAPDirectory
from repro.resolvers import (
    DirectoryResolver,
    LDAPSimResolver,
    ResolverConfig,
    ResolverUnavailableError,
)


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def identity():
    backend = IdentityBackend()
    backend.create_account("alice", "alice@example.edu")
    backend.create_account("bob", "bob@example.edu")
    return backend


class TestDirectoryResolver:
    def test_hit_carries_uid_and_resolver_name(self, identity):
        resolver = DirectoryResolver(identity)
        found = resolver.resolve("alice")
        assert found.uid == identity.get("alice").uid
        assert found.resolver == "directory"
        assert found.realm == "" and not found.federated

    def test_unknown_user_is_an_authoritative_miss(self, identity):
        resolver = DirectoryResolver(identity)
        assert resolver.resolve("mallory") is None
        assert resolver.snapshot() == {"lookups": 1, "hits": 0, "misses": 1, "errors": 0}

    def test_realm_suffix_is_split_off_before_lookup(self, identity):
        found = DirectoryResolver(identity).resolve("alice@center")
        assert found is not None
        assert found.username == "alice@center" and found.realm == "center"


class TestLDAPSimResolver:
    def test_resolves_via_subtree_search(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        found = resolver.resolve("bob")
        assert found.uid == identity.get("bob").uid
        assert found.resolver == "ldap"

    def test_outage_raises_unavailable_not_miss(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        resolver.set_outage(True)
        with pytest.raises(ResolverUnavailableError, match="down"):
            resolver.resolve("alice")
        assert resolver.snapshot()["errors"] == 1
        resolver.set_outage(False)
        assert resolver.resolve("alice") is not None

    def test_health_reports_outage_and_latency(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        resolver.set_latency(0.25)
        assert resolver.health() == {"available": True, "latency_seconds": 0.25}
        resolver.set_outage(True)
        assert resolver.health()["available"] is False

    def test_injected_failures_burn_down_then_recover(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        resolver.inject_failures(2)
        for _ in range(2):
            with pytest.raises(ResolverUnavailableError, match="timed out"):
                resolver.resolve("alice")
        assert resolver.resolve("alice") is not None

    def test_latency_spends_clock_time(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        resolver.set_latency(1.5)
        before = clock.now()
        resolver.resolve("alice")
        assert clock.now() - before == pytest.approx(1.5)

    def test_wildcard_username_is_a_miss_not_identity_confusion(
        self, identity, clock
    ):
        # Parsed as filter text, uid=* would wildcard-match the first
        # posixAccount — logging in as "*" would resolve to an arbitrary user.
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        assert resolver.resolve("*") is None
        assert resolver.resolve("ali*") is None
        assert resolver.resolve("alice") is not None

    def test_filter_metacharacters_miss_instead_of_crashing(
        self, identity, clock
    ):
        # A login name is compared, never parsed: a paren, backslash or NUL
        # in it is a miss, never an error that fails the whole validate.
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        for crafted in ["a)(uid=alice", "(", ")", "x\\y", "a\x00b"]:
            assert resolver.resolve(crafted) is None
        assert resolver.snapshot()["errors"] == 0

    @settings(max_examples=200, deadline=None)
    @given(uid=st.text(), other=st.text())
    @example(uid="*", other="alice")
    @example(uid="a*b", other="axb")
    @example(uid="al)ice", other="al")
    @example(uid="\\2a", other="*")
    @example(uid="", other="*")
    def test_a_literal_uid_finds_its_entry_and_no_other(self, uid, other):
        base = "ou=people,dc=center,dc=edu"
        ldap = LDAPDirectory()
        ldap.add(f"cn=bystander,{base}", {"uid": "bystander"})
        target = ldap.add(f"cn=target,{base}", {"uid": uid})
        hits = ldap.search(base, [("uid", uid)])
        assert target in hits
        assert len(hits) == 1 or uid.lower() == "bystander"
        found = target in ldap.search(base, [("uid", other)])
        assert found == (other.lower() == uid.lower())

    @pytest.mark.parametrize("name", ["a*b", "al)ice", "(", "back\\slash", "*"])
    def test_account_with_metacharacters_in_its_name_resolves(self, clock, name):
        identity = IdentityBackend()
        identity.create_account("axb", "axb@example.edu")
        account = identity.create_account(name, "odd@example.edu")
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        assert resolver.resolve(name).uid == account.uid
        assert resolver.resolve("axb").uid == identity.get("axb").uid


CASE_VARIANTS = [
    "Alice", "alice", "ALICE", "aLICE", "alice@center",
    "bob", "Bob", "BOB", "Bob@center",
]


class TestOneNameOneIdentity:
    """Whichever resolver answers, a name maps to one identity.  The directory
    compares uids case-blind, as LDAP does; the LDAP resolver keeps only an
    entry whose uid is the name exactly, as the account database keys it."""

    @pytest.mark.parametrize("name", CASE_VARIANTS)
    def test_both_resolvers_map_a_case_variant_alike(self, clock, name):
        identity = IdentityBackend()
        identity.create_account("Alice", "a@example.edu")
        identity.create_account("bob", "b@example.edu")
        by_ldap = LDAPSimResolver(identity.ldap, clock=clock).resolve(name)
        by_directory = DirectoryResolver(identity).resolve(name)
        assert (by_ldap and by_ldap.uid) == (by_directory and by_directory.uid)

    def test_both_chains_validate_a_case_variant_alike(self):
        """Alice's code is hers alone on the LDAP-first chain too: a case
        variant of her name is an unknown user on both chains."""
        verdicts = []
        for use_ldap in (False, True):
            clock = VirtualClock.at("2016-10-05T09:00:00")
            center = MFACenter(
                clock=clock,
                rng=random.Random(7),
                resolvers=ResolverConfig(use_ldap=use_ldap),
            )
            center.create_user("Alice", password="pw")
            _, secret = center.pair_soft("Alice")
            with pytest.raises(ValidationError):
                center.create_user("alice", password="pw2")
            device = TOTPGenerator(secret=secret, clock=clock)
            seen = []
            for name in ("alice", "ALICE", "Alice", "aLICE"):
                clock.advance(31)  # a fresh step: never a replay
                seen.append(center.otp.validate(name, device.current_code()).status)
            verdicts.append(seen)
        directory_only, ldap_first = verdicts
        assert ldap_first == directory_only
        assert directory_only == [
            ValidateStatus.NO_TOKEN,
            ValidateStatus.NO_TOKEN,
            ValidateStatus.OK,
            ValidateStatus.NO_TOKEN,
        ]

    @pytest.mark.parametrize("use_ldap", [False, True])
    def test_an_empty_part_around_the_at_names_no_one(self, use_ldap):
        """``alice@`` is no second login name for ``alice`` on either chain:
        a name with an empty local part or realm around its last ``@`` is
        unrouted, so policy and risk never key one token row two ways."""
        clock = VirtualClock.at("2016-10-05T09:00:00")
        center = MFACenter(
            clock=clock,
            rng=random.Random(7),
            resolvers=ResolverConfig(use_ldap=use_ldap),
        )
        center.create_user("alice", password="pw")
        _, secret = center.pair_soft("alice")
        device = TOTPGenerator(secret=secret, clock=clock)
        seen = []
        for name in ("alice@", "@alice", "alice@@", "alice"):
            clock.advance(31)  # a fresh step: never a replay
            seen.append(center.radius_backend.validate(name, device.current_code()).status)
        assert seen == [ValidateStatus.NO_TOKEN] * 3 + [ValidateStatus.OK]
        assert center.resolver_chain.unrouted == 3

