"""The uid probe without the parser is the same probe.

``search(base, equality_filter("uid", name))`` — what ``pam_mfa_token`` asks
on every login — must answer exactly what the escaped filter text answered,
for any login name an attacker can type, against a directory that really
does hold uids made of filter metacharacters.
"""

from hypothesis import given, strategies as st

from repro.directory.ldap import LDAPDirectory, _normalize_dn, equality_filter
from repro.resolvers import escape_filter_value

SUFFIX = "dc=center,dc=edu"
PEOPLE = f"ou=people,{SUFFIX}"
HOSTILE_UIDS = [
    "alice", "ALICE", "*", "a*", "(", ")", "al)ice", "\\", "\\2a", "a\\5cb",
    "\x00", "nul\x00led", "renée", "RENÉE", "ß", "İ", "", " padded ", "(uid=*)",
]


def hostile_directory() -> LDAPDirectory:
    directory = LDAPDirectory(SUFFIX)
    for index, uid in enumerate(HOSTILE_UIDS):
        parent = PEOPLE if index % 2 else f"ou=visitors,{PEOPLE}"
        directory.add(f"cn=e{index},{parent}", {"uid": [uid], "mfaPairingType": ["soft"]})
    directory.add(f"cn=shared,{PEOPLE}", {"uid": ["alice", "*"]})
    directory.add(PEOPLE, {"uid": ["alice"]})  # a base that is itself a hit
    return directory


DIRECTORY = hostile_directory()
usernames = st.one_of(
    st.sampled_from(HOSTILE_UIDS),
    st.sampled_from(HOSTILE_UIDS).map(str.swapcase),
    st.text(alphabet="*()\\\x00aA2é ", max_size=6),
    st.text(max_size=12),
)


class TestSameProbe:
    @given(name=usernames)
    def test_compiled_equality_answers_what_the_escaped_text_answers(self, name):
        text = f"(uid={escape_filter_value(name)})"
        for base in (SUFFIX, PEOPLE, f"cn=e1,{PEOPLE}"):
            for scope in ("base", "one", "sub"):
                probed = DIRECTORY.search(base, equality_filter("uid", name), scope)
                assert probed == DIRECTORY.search(base, text, scope), (base, scope)

    @given(name=usernames)
    def test_a_login_name_is_only_ever_a_literal(self, name):
        hits = DIRECTORY.search(SUFFIX, equality_filter("uid", name))
        folded = name.lower()
        assert all(folded in map(str.lower, entry.get("uid")) for entry in hits)
        expected = sum(
            folded in map(str.lower, entry.get("uid"))
            for entry in DIRECTORY.search(SUFFIX, "(uid=*)")
        )
        assert len(hits) == expected

    def test_attribute_name_is_case_blind_like_the_parser(self):
        assert DIRECTORY.search(SUFFIX, equality_filter("UID", "Alice")) == (
            DIRECTORY.search(SUFFIX, "(UID=Alice)")
        )

    def test_every_search_is_still_counted(self):
        before = DIRECTORY.query_count
        DIRECTORY.search(PEOPLE, equality_filter("uid", "alice"))
        assert DIRECTORY.query_count == before + 1


class TestSameHelpers:
    @given(value=st.one_of(st.text(max_size=20), st.text(alphabet="*()\\\x00ab", max_size=8)))
    def test_escape_by_translate_is_the_per_character_form(self, value):
        escapes = {"\\": "\\5c", "*": "\\2a", "(": "\\28", ")": "\\29", "\x00": "\\00"}
        assert escape_filter_value(value) == "".join(escapes.get(ch, ch) for ch in value)

    @given(
        dn=st.lists(
            st.text(alphabet="aZ=é İß \t  ", max_size=8), min_size=1, max_size=5
        ).map(",".join)
    )
    def test_normalize_dn_is_the_old_expression(self, dn):
        assert _normalize_dn(dn) == ",".join(p.strip().lower() for p in dn.split(","))
