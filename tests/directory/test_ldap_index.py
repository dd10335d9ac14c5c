"""The ``uid`` equality index answers exactly what the scan answers.

A model directory — an insertion-ordered dict of plain attribute dicts,
kept by the test itself — is scanned brute-force after every step of a
random interleaving of every mutation path, and ``search`` must return
the same entries in the same order for every scope, base and filter shape.
"""

import cProfile
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.directory.ldap import LDAPDirectory, LDAPEntry, parse_filter

SUFFIX = "dc=center,dc=edu"
PARENTS = [
    f"ou=people,{SUFFIX}",
    f"ou=services,{SUFFIX}",
    f"ou=visitors,ou=people,{SUFFIX}",
]
DNS = [f"cn=e{i},{parent}" for parent in PARENTS for i in range(3)]
BASES = [SUFFIX, *PARENTS, DNS[0], DNS[4]]
SCOPES = ["base", "one", "sub"]

UIDS = ["al", "AL", "Al", "bo", "Bo", "cy"]  # three values under case folding
FILTERS = [
    # shapes the index serves: some (uid=x) must hold for any match
    "(uid=al)",
    "(UID=BO)",
    "uid=cy",
    "(uid=nobody)",
    "(&(objectclass=posixaccount)(uid=al))",
    "(&(uid=bo)(!(mail=*)))",
    "(&(uid=al)(uid=bo))",
    "(&(mail=*)(&(uid=cy)))",
    # shapes that scan
    "(uid=a*)",
    "(uid=*)",
    "(|(uid=al)(uid=bo))",
    "(!(uid=al))",
    "(mail=*)",
    "(&(mail=*)(|(uid=al)(uid=cy)))",
    "(objectclass=*)",
]

uid_values = st.lists(st.sampled_from(UIDS), max_size=3)
attr_case = st.sampled_from(["uid", "UID", "Uid"])
some_dn = st.sampled_from(DNS)
#: Which live entry a handle-based step mutates, and how the handle is got.
handle = st.tuples(st.sampled_from(["get", "search"]), st.integers(0, len(DNS) - 1))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), some_dn, uid_values, st.booleans()),
        st.tuples(st.just("modify_uid"), some_dn, attr_case, uid_values),
        st.tuples(st.just("modify_drop_uid"), some_dn, attr_case),
        st.tuples(st.just("modify_mail"), some_dn, st.booleans()),
        st.tuples(st.just("delete"), some_dn, uid_values),
        st.tuples(st.just("set"), handle, attr_case, uid_values),
        st.tuples(st.just("add_value"), handle, attr_case, st.sampled_from(UIDS)),
        st.tuples(st.just("remove_attr"), handle, attr_case),
    ),
    max_size=25,
)


def parent_of(dn):
    return dn.partition(",")[2]


def reference_search(model, base, filter_text, scope):
    predicate = parse_filter(filter_text)
    found = []
    for dn, attributes in model.items():
        in_scope = {
            "base": dn == base,
            "one": parent_of(dn) == base,
            "sub": dn == base or dn.endswith("," + base),
        }[scope]
        if in_scope and predicate(LDAPEntry(dn, attributes)):
            found.append((dn, attributes))
    return found


def assert_same_answers(directory, model):
    for base in BASES:
        for scope in SCOPES:
            for filter_text in FILTERS:
                got = directory.search(base, filter_text, scope)
                assert [(e.dn, e.attributes) for e in got] == reference_search(
                    model, base, filter_text, scope
                ), (base, scope, filter_text)


def pick(directory, model, how):
    """A live entry through ``get`` or through a ``search`` result list."""
    via, n = how
    if not model:
        return None, None
    dn = list(model)[n % len(model)]
    if via == "get":
        return dn, directory.get(dn.upper())
    hits = directory.search(SUFFIX, "(objectclass=*)")
    return dn, next(e for e in hits if e.dn == dn)


def apply(directory, model, step):
    kind = step[0]
    if kind == "add":
        _, dn, uids, with_mail = step
        if dn in model:
            return
        attributes = {"objectClass": ["posixAccount"], "uid": uids}
        if with_mail:
            attributes["mail"] = "someone@center.edu"
        directory.add(dn, attributes)
        model[dn] = {
            "objectclass": ["posixAccount"],
            "uid": list(uids),
            **({"mail": ["someone@center.edu"]} if with_mail else {}),
        }
    elif kind == "modify_uid":
        _, dn, attr, uids = step
        if dn in model:
            directory.modify(dn, {attr: uids})
            model[dn]["uid"] = list(uids)
    elif kind == "modify_drop_uid":
        _, dn, attr = step
        if dn in model:
            directory.modify(dn, {attr: None})
            model[dn].pop("uid", None)
    elif kind == "modify_mail":
        _, dn, present = step
        if dn in model:
            directory.modify(dn, {"mail": ["new@center.edu"] if present else None})
            model[dn].pop("mail", None)
            if present:
                model[dn]["mail"] = ["new@center.edu"]
    elif kind == "delete":
        _, dn, uids = step
        if dn in model:
            gone = directory.get(dn)
            directory.delete(dn)
            del model[dn]
            # A deleted entry is the caller's own copy: changing it changes
            # nothing the directory answers.
            gone.set("uid", uids)
    elif kind == "set":
        _, how, attr, uids = step
        dn, entry = pick(directory, model, how)
        if entry is not None:
            entry.set(attr, uids)
            model[dn]["uid"] = list(uids)
    elif kind == "add_value":
        _, how, attr, uid = step
        dn, entry = pick(directory, model, how)
        if entry is not None:
            entry.add_value(attr, uid)
            model[dn].setdefault("uid", []).append(uid)
    elif kind == "remove_attr":
        _, how, attr = step
        dn, entry = pick(directory, model, how)
        if entry is not None:
            entry.remove_attr(attr)
            model[dn].pop("uid", None)


@settings(max_examples=120, deadline=None)
@given(steps=steps)
def test_search_equals_a_brute_force_scan_after_every_step(steps):
    directory, model = LDAPDirectory(), {}
    for step in steps:
        apply(directory, model, step)
        assert_same_answers(directory, model)
    for dn in list(model):
        directory.delete(dn)
    assert directory._by_uid == {}  # nothing stays filed for a gone entry


def test_shared_uid_comes_back_in_directory_order():
    directory = LDAPDirectory()
    first = directory.add(DNS[0], {"uid": "cy"})
    directory.add(DNS[1], {"uid": "al"})
    directory.add(DNS[3], {"uid": ["bo", "AL"]})
    first.add_value("uid", "Al")  # the oldest entry joins the value last
    assert [e.dn for e in directory.search(SUFFIX, "(uid=al)")] == [
        DNS[0],
        DNS[1],
        DNS[3],
    ]
    # Deleted and added again, a DN goes to the end of directory order.
    directory.delete(DNS[0])
    directory.add(DNS[0], {"uid": "al"})
    assert [e.dn for e in directory.search(SUFFIX, "(uid=al)")] == [
        DNS[1],
        DNS[3],
        DNS[0],
    ]


class Unprintable:
    """A value with no text form: storing it fails after ``uid`` is set."""

    def __str__(self):
        raise TypeError("no text form")


def test_failed_add_files_nothing():
    directory = LDAPDirectory()
    with pytest.raises(TypeError):
        directory.add(DNS[0], {"uid": "al", "mail": [Unprintable()]})
    assert directory.search(SUFFIX, "(uid=al)") == []
    assert not directory.exists(DNS[0])


def search_calls(entries, filter_text):
    """Interpreter calls (as loginbench counts them) of one uid search."""
    directory = LDAPDirectory()
    for i in range(entries):
        directory.add(
            f"uid=user{i:05d},ou=people,{SUFFIX}",
            {"objectClass": ["posixAccount"], "uid": f"user{i:05d}"},
        )
    profile = cProfile.Profile()
    gc.disable()  # a collection's callbacks (hypothesis hangs one) are calls too
    try:
        profile.enable()
        hits = directory.search(f"ou=people,{SUFFIX}", filter_text)
        profile.disable()
    finally:
        gc.enable()
    assert [e.first("uid") for e in hits] == ["user00042"]
    return sum(entry.callcount for entry in profile.getstats())


@pytest.mark.parametrize(
    "filter_text",
    [
        "(uid=user00042)",  # pam_mfa_token's pairing lookup
        "(&(objectclass=posixaccount)(uid=user00042))",  # LDAPSimResolver's
    ],
)
def test_uid_search_cost_does_not_grow_with_the_directory(filter_text):
    small = search_calls(100, filter_text)
    assert small == search_calls(10_000, filter_text)
    assert small < 100
