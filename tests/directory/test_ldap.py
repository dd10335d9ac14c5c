"""LDAP directory: entries, modify semantics, filters, scopes."""

import pytest

from repro.common.errors import NotFoundError
from repro.directory.ldap import LDAPDirectory, LDAPEntry, parse_filter


@pytest.fixture
def directory():
    d = LDAPDirectory()
    d.add(
        "uid=alice,ou=people,dc=center,dc=edu",
        {"uid": "alice", "mail": "alice@utexas.edu", "mfaPairingType": "soft",
         "objectClass": ["posixAccount", "inetOrgPerson"]},
    )
    d.add(
        "uid=bob,ou=people,dc=center,dc=edu",
        {"uid": "bob", "mail": "bob@tacc.utexas.edu", "mfaPairingType": "unpaired",
         "objectClass": ["posixAccount"]},
    )
    d.add(
        "uid=gateway01,ou=services,dc=center,dc=edu",
        {"uid": "gateway01", "accountClass": "gateway"},
    )
    return d


class TestEntries:
    def test_add_and_get(self, directory):
        entry = directory.get("uid=alice,ou=people,dc=center,dc=edu")
        assert entry.first("mail") == "alice@utexas.edu"

    def test_dn_normalization(self, directory):
        entry = directory.get("UID=Alice, OU=People, DC=center, DC=edu")
        assert entry.first("uid") == "alice"

    def test_duplicate_dn_rejected(self, directory):
        with pytest.raises(ValueError):
            directory.add("uid=alice,ou=people,dc=center,dc=edu", {})

    def test_get_missing_raises(self, directory):
        with pytest.raises(NotFoundError):
            directory.get("uid=ghost,ou=people,dc=center,dc=edu")

    def test_modify_replace(self, directory):
        directory.modify(
            "uid=bob,ou=people,dc=center,dc=edu", {"mfaPairingType": ["sms"]}
        )
        assert directory.get("uid=bob,ou=people,dc=center,dc=edu").first(
            "mfaPairingType"
        ) == "sms"

    def test_modify_delete_attribute(self, directory):
        directory.modify("uid=bob,ou=people,dc=center,dc=edu", {"mail": None})
        assert directory.get("uid=bob,ou=people,dc=center,dc=edu").get("mail") == []

    def test_delete_entry(self, directory):
        directory.delete("uid=bob,ou=people,dc=center,dc=edu")
        assert not directory.exists("uid=bob,ou=people,dc=center,dc=edu")

    def test_multivalued_attributes(self, directory):
        entry = directory.get("uid=alice,ou=people,dc=center,dc=edu")
        assert entry.get("objectClass") == ["posixAccount", "inetOrgPerson"]


class TestOneValue:
    """A bare string, or any value that is not iterable, is one value — for
    the entry mutator and for ``add`` and ``modify``, which go through it."""

    ALICE = "uid=alice,ou=people,dc=center,dc=edu"

    def test_set_keeps_a_string_whole(self, directory):
        entry = directory.get(self.ALICE)
        entry.set("uid", "bob")
        assert entry.get("uid") == ["bob"]
        # The uid index files the entry under the value, not its letters.
        assert directory.search("dc=center,dc=edu", "(uid=b)") == []
        assert [e.dn for e in directory.search("dc=center,dc=edu", "(uid=bob)")] == [
            self.ALICE,
            "uid=bob,ou=people,dc=center,dc=edu",
        ]

    def test_a_value_that_is_not_iterable_is_one_value(self, directory):
        entry = directory.add("cn=answer,dc=center,dc=edu", {"cn": 42})
        assert entry.get("cn") == ["42"]
        directory.modify(self.ALICE, {"uidNumber": 7})
        assert directory.get(self.ALICE).get("uidNumber") == ["7"]

    def test_entries_share_one_name_per_attribute_type(self, directory):
        alice = directory.get(self.ALICE)
        alice.set("MAIL", ["a@b"])
        bob = directory.get("uid=bob,ou=people,dc=center,dc=edu")
        (alice_mail,) = (name for name in alice.attributes if name == "mail")
        (bob_mail,) = (name for name in bob.attributes if name == "mail")
        assert alice_mail is bob_mail


class TestFilters:
    def test_equality(self):
        f = parse_filter("(uid=alice)")
        assert f(LDAPEntry("x", {"uid": ["alice"]}))
        assert not f(LDAPEntry("x", {"uid": ["bob"]}))

    def test_equality_case_insensitive(self):
        f = parse_filter("(uid=ALICE)")
        assert f(LDAPEntry("x", {"uid": ["alice"]}))

    def test_presence(self):
        f = parse_filter("(mail=*)")
        assert f(LDAPEntry("x", {"mail": ["a@b"]}))
        assert not f(LDAPEntry("x", {}))

    def test_substring(self):
        f = parse_filter("(mail=*@tacc.*)")
        assert f(LDAPEntry("x", {"mail": ["bob@tacc.utexas.edu"]}))
        assert not f(LDAPEntry("x", {"mail": ["alice@utexas.edu"]}))

    def test_prefix_substring(self):
        f = parse_filter("(uid=gate*)")
        assert f(LDAPEntry("x", {"uid": ["gateway01"]}))
        assert not f(LDAPEntry("x", {"uid": ["alice"]}))

    def test_and(self):
        f = parse_filter("(&(uid=alice)(mfaPairingType=soft))")
        assert f(LDAPEntry("x", {"uid": ["alice"], "mfapairingtype": ["soft"]}))
        assert not f(LDAPEntry("x", {"uid": ["alice"], "mfapairingtype": ["sms"]}))

    def test_or(self):
        f = parse_filter("(|(uid=alice)(uid=bob))")
        assert f(LDAPEntry("x", {"uid": ["bob"]}))
        assert not f(LDAPEntry("x", {"uid": ["carol"]}))

    def test_not(self):
        f = parse_filter("(!(mfaPairingType=unpaired))")
        assert f(LDAPEntry("x", {"mfapairingtype": ["soft"]}))
        assert not f(LDAPEntry("x", {"mfapairingtype": ["unpaired"]}))

    def test_nested_boolean(self):
        f = parse_filter("(&(objectClass=posixAccount)(!(uid=bob)))")
        assert f(LDAPEntry("x", {"objectclass": ["posixAccount"], "uid": ["alice"]}))
        assert not f(LDAPEntry("x", {"objectclass": ["posixAccount"], "uid": ["bob"]}))

    def test_implicit_parens(self):
        assert parse_filter("uid=alice")(LDAPEntry("x", {"uid": ["alice"]}))

    @pytest.mark.parametrize(
        "bad", ["(uid=alice", "(&(uid=a)", "(uid)", "(!(uid=a)", "(uid=a))"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_filter(bad)

    def test_escaped_star_is_a_literal_star(self):
        f = parse_filter("(uid=a\\2ab)")
        assert f(LDAPEntry("x", {"uid": ["a*b"]}))
        assert not f(LDAPEntry("x", {"uid": ["axb"]}))
        assert not f(LDAPEntry("x", {"uid": ["a\\2ab"]}))

    def test_escaped_star_alone_is_not_presence(self):
        f = parse_filter("(uid=\\2A)")
        assert f(LDAPEntry("x", {"uid": ["*"]}))
        assert not f(LDAPEntry("x", {"uid": ["alice"]}))

    def test_escapes_inside_a_substring_pattern(self):
        f = parse_filter("(uid=a\\2a*\\29)")
        assert f(LDAPEntry("x", {"uid": ["a*lice)"]}))
        assert not f(LDAPEntry("x", {"uid": ["alice)"]}))
        assert not f(LDAPEntry("x", {"uid": ["a*lice"]}))

    def test_every_metacharacter_escape(self):
        f = parse_filter("(uid=\\28\\29\\5c\\2a\\00)")
        assert f(LDAPEntry("x", {"uid": ["()\\*\x00"]}))

    def test_escapes_are_utf8_octets(self):
        assert parse_filter("(cn=ren\\c3\\a9e)")(LDAPEntry("x", {"cn": ["Ren\u00e9e"]}))

    @pytest.mark.parametrize(
        "bad",
        ["(uid=\\zz)", "(uid=a\\)", "(uid=\\2)", "(uid=a*\\g0)", "(uid=\\ff)", "(uid=\\ 1)"],
    )
    def test_malformed_escape_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_filter(bad)


class TestSearch:
    def test_sub_scope(self, directory):
        results = directory.search("dc=center,dc=edu", "(uid=*)")
        assert len(results) == 3

    def test_one_scope(self, directory):
        results = directory.search("ou=people,dc=center,dc=edu", "(uid=*)", scope="one")
        assert {e.first("uid") for e in results} == {"alice", "bob"}

    def test_base_scope(self, directory):
        results = directory.search(
            "uid=alice,ou=people,dc=center,dc=edu", "(uid=*)", scope="base"
        )
        assert len(results) == 1

    def test_filter_applied(self, directory):
        results = directory.search("dc=center,dc=edu", "(mfaPairingType=soft)")
        assert [e.first("uid") for e in results] == ["alice"]

    def test_invalid_scope(self, directory):
        with pytest.raises(ValueError):
            directory.search("dc=center,dc=edu", "(uid=*)", scope="tree")

    def test_invalid_scope_rejected_before_any_entry_is_looked_at(self):
        with pytest.raises(ValueError, match="invalid scope 'bogus'"):
            LDAPDirectory().search("x", scope="bogus")

    def test_query_counter(self, directory):
        before = directory.query_count
        directory.search("dc=center,dc=edu", "(uid=alice)")
        assert directory.query_count == before + 1
