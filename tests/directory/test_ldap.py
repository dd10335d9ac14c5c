"""LDAP directory: entries, modify semantics, equality filters, subtree search."""

import pytest

from repro.common.errors import NotFoundError
from repro.directory.ldap import PEOPLE_BASE, LDAPDirectory


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
        assert directory.get("uid=bob,ou=people,dc=center,dc=edu").get("mail") == ()

    def test_delete_entry(self, directory):
        directory.delete("uid=bob,ou=people,dc=center,dc=edu")
        assert not directory.exists("uid=bob,ou=people,dc=center,dc=edu")

    def test_multivalued_attributes(self, directory):
        entry = directory.get("uid=alice,ou=people,dc=center,dc=edu")
        assert entry.get("objectClass") == ("posixAccount", "inetOrgPerson")


class TestHandedOutValues:
    """What ``get`` and ``search`` hand out cannot change behind the index."""

    def test_a_value_list_cannot_be_changed_in_place(self):
        directory = LDAPDirectory()
        entry = directory.add("uid=alice," + PEOPLE_BASE, {"uid": ["alice"]})
        with pytest.raises(AttributeError):
            entry.get("uid").append("mallory")
        (found,) = directory.search(PEOPLE_BASE, ())
        with pytest.raises(TypeError):
            found.attributes["uid"][0] = "mallory"
        for name in ("alice", "mallory"):
            walked = [
                e
                for e in directory.search(PEOPLE_BASE, ())
                if name in map(str.lower, e.get("uid"))
            ]
            assert directory.search(PEOPLE_BASE, (("uid", name),)) == walked, name
        assert entry.get("uid") == ("alice",)


class TestOneValue:
    """A bare string, or any value that is not iterable, is one value — for
    the entry mutator and for ``add`` and ``modify``, which go through it."""

    ALICE = "uid=alice,ou=people,dc=center,dc=edu"

    def test_set_keeps_a_string_whole(self, directory):
        entry = directory.get(self.ALICE)
        entry.set("uid", "bob")
        assert entry.get("uid") == ("bob",)
        # The uid index files the entry under the value, not its letters.
        assert directory.search("dc=center,dc=edu", [("uid", "b")]) == []
        hits = directory.search("dc=center,dc=edu", [("uid", "bob")])
        assert [e.dn for e in hits] == [
            self.ALICE,
            "uid=bob,ou=people,dc=center,dc=edu",
        ]

    def test_a_value_that_is_not_iterable_is_one_value(self, directory):
        entry = directory.add("cn=answer,dc=center,dc=edu", {"cn": 42})
        assert entry.get("cn") == ("42",)
        directory.modify(self.ALICE, {"uidNumber": 7})
        assert directory.get(self.ALICE).get("uidNumber") == ("7",)

    def test_entries_share_one_name_per_attribute_type(self, directory):
        alice = directory.get(self.ALICE)
        alice.set("MAIL", ["a@b"])
        bob = directory.get("uid=bob,ou=people,dc=center,dc=edu")
        (alice_mail,) = (name for name in alice.attributes if name == "mail")
        (bob_mail,) = (name for name in bob.attributes if name == "mail")
        assert alice_mail is bob_mail


def holds(attributes, *pairs):
    """Whether an entry with ``attributes`` holds the conjunction ``pairs``."""
    directory = LDAPDirectory()
    directory.add("cn=x,dc=center,dc=edu", attributes)
    return bool(directory.search("dc=center,dc=edu", pairs))


class TestFilters:
    def test_equality(self):
        assert holds({"uid": "alice"}, ("uid", "alice"))
        assert not holds({"uid": "bob"}, ("uid", "alice"))
        assert not holds({"mail": "alice"}, ("uid", "alice"))

    def test_equality_case_insensitive(self):
        assert holds({"uid": "alice"}, ("UID", "ALICE"))
        assert holds({"cn": "Ren\u00e9e"}, ("cn", "REN\u00c9E"))

    def test_and(self):
        pairs = (("uid", "alice"), ("mfaPairingType", "soft"))
        assert holds({"uid": "alice", "mfaPairingType": "soft"}, *pairs)
        assert not holds({"uid": "alice", "mfaPairingType": "sms"}, *pairs)
        assert not holds({"mfaPairingType": "soft"}, *pairs)

    def test_any_value_of_a_multivalued_attribute_matches(self):
        classes = {"objectClass": ["posixAccount", "inetOrgPerson"]}
        assert holds(classes, ("objectclass", "inetorgperson"))

    def test_the_empty_conjunction_holds_for_every_entry(self):
        assert holds({})

    @pytest.mark.parametrize(
        "value", ["*", "a*b", "(uid=*)", "al)ice", "\\2a", "()\\*\x00"]
    )
    def test_filter_syntax_in_a_value_is_a_literal(self, value):
        assert holds({"uid": value}, ("uid", value))
        assert not holds({"uid": "axb"}, ("uid", value))
        assert not holds({"uid": "alice"}, ("uid", value))


class TestSearch:
    def test_sub_scope(self, directory):
        everything = ()
        assert len(directory.search("dc=center,dc=edu", everything)) == 3
        results = directory.search("ou=people,dc=center,dc=edu", everything)
        assert [e.first("uid") for e in results] == ["alice", "bob"]
        # The base entry is in its own subtree.
        results = directory.search("uid=alice,ou=people,dc=center,dc=edu", everything)
        assert [e.first("uid") for e in results] == ["alice"]

    def test_filter_applied(self, directory):
        results = directory.search("dc=center,dc=edu", [("mfaPairingType", "soft")])
        assert [e.first("uid") for e in results] == ["alice"]

    def test_query_counter(self, directory):
        before = directory.query_count
        directory.search("dc=center,dc=edu", [("uid", "alice")])
        assert directory.query_count == before + 1
