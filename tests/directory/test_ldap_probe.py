"""A login name reaches the directory as a literal, compared and never parsed.

Both of the directory's callers ask ``search`` for a conjunction of literal
equalities: ``pam_mfa_token``'s pairing probe ``(uid=<name>)`` on every
login, and ``LDAPSimResolver``'s ``(&(objectclass=posixaccount)(uid=<name>))``.
For any login name an attacker can type, against a directory that really
does hold uids made of filter metacharacters, each search must answer what a
brute-force walk of the directory answers — the entries whose ``uid`` is
that name, case-blind, or an authoritative miss — and never raise.
"""

from hypothesis import given, strategies as st

from repro.common.clock import VirtualClock
from repro.directory.ldap import LDAPDirectory, _normalize_dn
from repro.resolvers import LDAPSimResolver, split_realm

SUFFIX = "dc=center,dc=edu"
PEOPLE = f"ou=people,{SUFFIX}"
HOSTILE_UIDS = [
    "alice", "ALICE", "*", "a*", "(", ")", "al)ice", "\\", "\\2a", "a\\5cb",
    "\x00", "nul\x00led", "renée", "RENÉE", "ß", "İ", "", " padded ", "(uid=*)",
    "\ud800", "lone\udfffsurrogate", "bob@home",
]
PARENTS = [PEOPLE, f"ou=visitors,{PEOPLE}", f"ou=services,{SUFFIX}"]


def hostile_directory() -> LDAPDirectory:
    directory = LDAPDirectory(SUFFIX)
    for index, uid in enumerate(HOSTILE_UIDS):
        attributes = {"uid": [uid], "uidNumber": [f"n{index}"]}
        if index % 4:  # every fourth entry is no posixAccount
            attributes["objectClass"] = ["posixAccount"]
        directory.add(f"cn=e{index},{PARENTS[index % 3]}", attributes)
    directory.add(
        f"cn=shared,{PEOPLE}",
        {"uid": ["alice", "*"], "objectClass": ["posixAccount"], "uidNumber": ["s"]},
    )
    directory.add(
        f"cn=numberless,{PEOPLE}", {"uid": ["RENÉE"], "objectClass": "posixAccount"}
    )
    directory.add(PEOPLE, {"uid": ["alice"]})  # a base that is itself a hit
    return directory


DIRECTORY = hostile_directory()
ALL = DIRECTORY.search(SUFFIX, ())
hostile = st.sampled_from(HOSTILE_UIDS)
surrogates = st.characters(min_codepoint=0xD7FE, max_codepoint=0xE001)
names = st.one_of(
    hostile,
    hostile.map(str.swapcase),
    hostile.map(str.upper),
    st.text(alphabet="*()\\\x00aA2é @", max_size=6),
    st.text(alphabet=surrogates, max_size=3),
    st.text(max_size=12),
)
usernames = st.one_of(
    names, st.tuples(names, st.sampled_from(["home", "site.edu", ""])).map("@".join)
)


def scan(base, uid, object_class=None):
    """Every entry of ``base``'s subtree, in directory order, whose ``uid``
    is ``uid`` case-blind (and whose class is ``object_class``, if given)."""
    base = _normalize_dn(base)

    def has(entry, attr, value):
        return value.lower() in [v.lower() for v in entry.get(attr)]

    return [
        entry
        for entry in ALL
        if (entry.dn == base or entry.dn.endswith("," + base))
        and has(entry, "uid", uid)
        and (object_class is None or has(entry, "objectclass", object_class))
    ]


class TestSameProbe:
    """``search`` answers what the brute-force walk answers."""

    @given(name=usernames)
    def test_a_login_name_is_only_ever_a_literal(self, name):
        # pam_mfa_token's pairing probe.
        for base in (SUFFIX, PEOPLE, f"cn=e1,{PEOPLE}"):
            hits = DIRECTORY.search(base, [("uid", name)])
            assert hits == scan(base, name), base

    @given(name=usernames)
    def test_the_resolver_probe_is_a_literal_match_or_a_miss(self, name):
        local, _ = split_realm(name)
        pairs = (("objectclass", "posixaccount"), ("uid", local))
        hits = DIRECTORY.search(PEOPLE, pairs)
        assert hits == scan(PEOPLE, local, "posixaccount")
        # The resolver takes the first hit whose uid is the name exactly.
        exact = [entry for entry in hits if local in entry.get("uid")]
        expected = exact[0].first("uidnumber") if exact else None
        resolved = LDAPSimResolver(DIRECTORY, clock=VirtualClock()).resolve(name)
        assert (resolved and (resolved.username, resolved.uid)) == (
            expected and (name, expected)
        )

    def test_attribute_name_is_case_blind(self):
        assert DIRECTORY.search(SUFFIX, [("UID", "Alice")]) == (
            DIRECTORY.search(SUFFIX, [("uid", "alice")])
        )

    def test_every_search_is_still_counted(self):
        before = DIRECTORY.query_count
        DIRECTORY.search(PEOPLE, [("uid", "alice")])
        assert DIRECTORY.query_count == before + 1


class TestSameHelpers:
    @given(
        dn=st.lists(
            st.text(alphabet="aZ=é İß \t\u00a0\u2003", max_size=8), min_size=1, max_size=5
        ).map(",".join)
    )
    def test_normalize_dn_is_the_old_expression(self, dn):
        assert _normalize_dn(dn) == ",".join(p.strip().lower() for p in dn.split(","))
