"""Concrete resolver backends: directory, LDAP sim, flat file."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.directory.identity import IdentityBackend
from repro.directory.ldap import LDAPDirectory
from repro.resolvers import (
    DirectoryResolver,
    FlatFileResolver,
    LDAPSimResolver,
    ResolverUnavailableError,
    escape_filter_value,
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
        assert resolver.stats() == {"lookups": 1, "hits": 0, "misses": 1, "errors": 0}

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
        assert resolver.stats()["errors"] == 1
        resolver.set_outage(False)
        assert resolver.resolve("alice") is not None

    def test_health_reports_outage_and_latency(self, identity, clock):
        resolver = LDAPSimResolver(identity.ldap, clock=clock, latency=0.25)
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
        resolver = LDAPSimResolver(identity.ldap, clock=clock, latency=1.5)
        before = clock.now()
        resolver.resolve("alice")
        assert clock.now() - before == pytest.approx(1.5)

    def test_wildcard_username_is_a_miss_not_identity_confusion(
        self, identity, clock
    ):
        # Unescaped, uid=* wildcard-matches the first posixAccount —
        # logging in as "*" would resolve to some arbitrary real user.
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        assert resolver.resolve("*") is None
        assert resolver.resolve("ali*") is None
        assert resolver.resolve("alice") is not None

    def test_filter_metacharacters_miss_instead_of_crashing(
        self, identity, clock
    ):
        # Unescaped parens broke parse_filter with an uncaught ValueError,
        # crashing the whole validate request.
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        for crafted in ["a)(uid=alice", "(", ")", "x\\y", "a\x00b"]:
            assert resolver.resolve(crafted) is None
        assert resolver.stats()["errors"] == 0

    def test_escape_filter_value_covers_rfc4515_metacharacters(self):
        assert escape_filter_value("alice") == "alice"
        assert escape_filter_value("*") == "\\2a"
        assert escape_filter_value("a(b)c\\d\x00") == "a\\28b\\29c\\5cd\\00"

    @settings(max_examples=200, deadline=None)
    @given(uid=st.text(), other=st.text())
    @example(uid="*", other="alice")
    @example(uid="a*b", other="axb")
    @example(uid="al)ice", other="al")
    @example(uid="\\2a", other="*")
    @example(uid="", other="*")
    def test_escaped_uid_finds_its_entry_and_no_other(self, uid, other):
        base = "ou=people,dc=center,dc=edu"
        ldap = LDAPDirectory()
        ldap.add(f"cn=bystander,{base}", {"uid": "bystander"})
        target = ldap.add(f"cn=target,{base}", {"uid": uid})
        hits = ldap.search(base, f"(uid={escape_filter_value(uid)})")
        assert target in hits
        assert len(hits) == 1 or uid.lower() == "bystander"
        found = target in ldap.search(base, f"(uid={escape_filter_value(other)})")
        assert found == (other.lower() == uid.lower())

    @pytest.mark.parametrize("name", ["a*b", "al)ice", "(", "back\\slash", "*"])
    def test_account_with_metacharacters_in_its_name_resolves(self, clock, name):
        identity = IdentityBackend()
        identity.create_account("axb", "axb@example.edu")
        account = identity.create_account(name, "odd@example.edu")
        resolver = LDAPSimResolver(identity.ldap, clock=clock)
        assert resolver.resolve(name).uid == account.uid
        assert resolver.resolve("axb").uid == identity.get("axb").uid


class TestFlatFileResolver:
    def test_parses_simple_and_passwd_style_lines(self):
        resolver = FlatFileResolver(
            "# service accounts\n"
            "backup:9001\n"
            "\n"
            "daemon:x:9002:9002:Daemon:/var/empty:/sbin/nologin\n"
        )
        assert len(resolver) == 2
        assert resolver.resolve("backup").uid == "9001"
        assert resolver.resolve("daemon").uid == "9002"

    def test_malformed_line_rejected_at_construction(self):
        with pytest.raises(ValueError, match="malformed flat-file line"):
            FlatFileResolver("no-colon-here")

    def test_two_field_line_with_placeholder_uid_does_not_crash(self):
        # 'alice:x' used to raise an uncaught IndexError reaching for a
        # third field that is not there.
        resolver = FlatFileResolver("alice:x")
        assert resolver.resolve("alice").uid == "x"

    def test_passwd_lines_with_non_x_password_fields_map_the_real_uid(self):
        # Locked accounts ('*', '!') and hash-bearing rows are real
        # /etc/passwd shapes; the uid is the third field for all of them.
        resolver = FlatFileResolver(
            "locked:*:9100:9100::/var/empty:/sbin/nologin\n"
            "disabled:!:9101:9101::/var/empty:/sbin/nologin\n"
            "hashed:$6$salt$digest:9102:9102::/home/hashed:/bin/sh\n"
        )
        assert resolver.resolve("locked").uid == "9100"
        assert resolver.resolve("disabled").uid == "9101"
        assert resolver.resolve("hashed").uid == "9102"

    def test_numeric_second_field_is_the_uid_even_with_extra_fields(self):
        resolver = FlatFileResolver("backup:9001:comment:ignored")
        assert resolver.resolve("backup").uid == "9001"

    def test_add_and_miss(self):
        resolver = FlatFileResolver()
        resolver.add("ops", "42")
        assert resolver.resolve("ops").uid == "42"
        assert resolver.resolve("nobody") is None
