"""Property-based checks of the exemption ACL against stdlib references."""

import ipaddress
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.pam.acl import InMemoryExemptionACL, OriginMatcher

ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda v: str(ipaddress.IPv4Address(v))
)
prefix_len = st.integers(min_value=0, max_value=32)


class TestCIDRAgainstStdlib:
    @given(network_ip=ipv4, prefix=prefix_len, candidate=ipv4)
    def test_matches_ipaddress_module(self, network_ip, prefix, candidate):
        network = ipaddress.ip_network(f"{network_ip}/{prefix}", strict=False)
        matcher = OriginMatcher.parse(f"{network.network_address}/{prefix}")
        expected = ipaddress.ip_address(candidate) in network
        assert matcher.matches(candidate) == expected

    @given(ip=ipv4)
    def test_single_ip_self_match(self, ip):
        matcher = OriginMatcher.parse(ip)
        assert matcher.matches(ip)

    @given(ip=ipv4, other=ipv4)
    def test_single_ip_only_matches_itself(self, ip, other):
        matcher = OriginMatcher.parse(ip)
        assert matcher.matches(other) == (ip == other)


usernames = st.sampled_from(["alice", "bob", "gateway01", "mallory"])
permissions = st.sampled_from(["+", "-"])
accounts_field = st.sampled_from(["ALL", "alice", "bob", "alice,bob", "gateway01"])
origins_field = st.sampled_from(
    ["ALL", "10.0.0.0/8", "129.114.0.0/16", "203.0.113.7", "10.0.0.0/8,203.0.113.7"]
)
rule_strategy = st.tuples(permissions, accounts_field, origins_field)
query_ips = st.sampled_from(["10.1.2.3", "129.114.9.9", "203.0.113.7", "8.8.8.8"])


def reference_check(rules, username, ip):
    """Independent first-match-wins evaluator using ipaddress."""
    for permission, accounts, origins in rules:
        if accounts != "ALL" and username not in accounts.split(","):
            continue
        matched = False
        for origin in origins.split(","):
            if origin == "ALL":
                matched = True
            else:
                network = ipaddress.ip_network(origin, strict=False)
                if ipaddress.ip_address(ip) in network:
                    matched = True
        if matched:
            return permission == "+"
    return False


class TestACLAgainstReference:
    @given(
        rules=st.lists(rule_strategy, max_size=6),
        username=usernames,
        ip=query_ips,
    )
    def test_first_match_semantics(self, rules, username, ip):
        text = "\n".join(f"{p} : {a} : {o} : ALL" for p, a, o in rules)
        acl = InMemoryExemptionACL(text, clock=VirtualClock(0.0))
        assert acl.check(username, ip) == reference_check(rules, username, ip)

    @given(rules=st.lists(rule_strategy, max_size=6))
    def test_no_rules_means_deny(self, rules):
        acl = InMemoryExemptionACL("", clock=VirtualClock(0.0))
        assert not acl.check("anyone", "1.2.3.4")


#: Every character ``str.isdigit()`` accepts beyond 0-9 in a few scripts,
#: beside the ASCII ones and the separators an address is written with.
DIGITISH = "0123456789./²³¹１２３٠١٢٣०१२ ߀"


def reference_address(text):
    """Four runs of one to three ASCII digits, each at most 255 — or None."""
    parts = text.split(".")
    if len(parts) != 4 or not all(
        p.isascii() and p.isdigit() and len(p) <= 3 and int(p) <= 255 for p in parts
    ):
        return None
    return ipaddress.IPv4Address(".".join(str(int(p)) for p in parts))


class TestOriginsAreAnyText:
    """The origin comes off the wire (``PAM_RHOST``): whatever it is, the
    answer is a bool, and only a plain dotted quad can be inside a range."""

    RULES = "- : mallory : ALL : ALL\n+ : alice : 10.0.0.0/8,203.0.113.7 : ALL\n"

    @given(origin=st.one_of(st.text(max_size=30), st.text(alphabet=DIGITISH, max_size=16)))
    def test_check_is_a_bool_and_agrees_with_stdlib(self, origin):
        acl = InMemoryExemptionACL(self.RULES, clock=VirtualClock(0.0))
        granted = acl.check("alice", origin)
        assert granted is True or granted is False
        address = reference_address(origin)
        assert granted == (
            address is not None
            and (
                address in ipaddress.ip_network("10.0.0.0/8")
                or address == ipaddress.IPv4Address("203.0.113.7")
            )
        )

    @given(
        origin=st.text(alphabet=DIGITISH, min_size=1, max_size=16).filter(
            lambda text: not text.isascii()
        )
    )
    def test_non_ascii_spelling_is_never_inside_a_range(self, origin):
        assert not OriginMatcher.parse("0.0.0.0/0").matches(origin)
        assert not InMemoryExemptionACL(
            "+ : ALL : 0.0.0.0/0 : ALL", clock=VirtualClock(0.0)
        ).check("alice", origin)

    @given(field=st.text(alphabet=DIGITISH + ",ALal", max_size=24))
    def test_origins_field_parses_or_is_a_configuration_error(self, field):
        acl = InMemoryExemptionACL(f"+ : alice : {field} : ALL", clock=VirtualClock(0.0))
        assert (acl.last_error is None) or not acl.check("alice", "10.1.2.3")


#: Addresses the rules and the sources share, so that origins nest and overlap.
POOL = ["0.0.0.0", "10.0.0.1", "10.0.1.7", "10.1.2.3", "129.114.9.9", "203.0.113.7",
        "255.255.255.255"]
NOT_ADDRESSES = ["", "not-an-ip", "10.0.0.256", "10.0.0", "１0.0.0.1", "ALL"]
DAY = datetime(2016, 9, 15, tzinfo=timezone.utc)

origin = st.one_of(
    st.just("ALL"),
    st.sampled_from(POOL),
    st.builds(
        "{}/{}".format,
        st.sampled_from(POOL),
        st.one_of(st.sampled_from([0, 8, 16, 24, 32]), prefix_len),
    ),
    st.builds("{}/{}".format, ipv4, prefix_len),
)
accounts = st.one_of(
    st.just("ALL"),
    st.lists(st.sampled_from(["alice", "bob", "gw"]), min_size=1, max_size=2,
             unique=True).map(",".join),
)
expiry = st.one_of(
    st.just("ALL"),
    st.integers(-2, 2).map(lambda days: (DAY + timedelta(days=days)).date().isoformat()),
)
dated_rule = st.tuples(
    permissions, accounts, st.lists(origin, min_size=1, max_size=3), expiry
)
# Seconds from 00:00 of DAY, with the day boundaries themselves likely.
offset = st.one_of(
    st.floats(-86400.0, 2 * 86400.0),
    st.sampled_from([k * 86400.0 + d for k in (-1, 0, 1, 2) for d in (-0.5, 0.0, 0.5)]),
)
source = st.one_of(st.sampled_from(POOL), ipv4, st.sampled_from(NOT_ADDRESSES))


def linear_first_match(rules, username, ip, now):
    """The exemption the first-match walk down the list grants."""
    address = reference_address(ip)
    for permission, accounts_, origins, expiry_ in rules:
        if accounts_ != "ALL" and username not in accounts_.split(","):
            continue
        if expiry_ != "ALL":
            lapses = datetime.fromisoformat(expiry_).replace(tzinfo=timezone.utc)
            if now >= (lapses + timedelta(days=1)).timestamp():
                continue
        if any(
            o == "ALL"
            or (address is not None and address in ipaddress.ip_network(o, strict=False))
            for o in origins
        ):
            return permission == "+"
    return False


class TestBucketsAgainstTheWalk:
    """The compiled check grants exactly what a linear first-match walk
    over the same rules does."""

    @settings(max_examples=500, deadline=None)
    @given(
        rules=st.lists(dated_rule, max_size=40),
        split=st.integers(0, 40),
        username=st.sampled_from(["alice", "bob", "mallory"]),
        ip=source,
        seconds=offset,
    )
    # The /8 bucket is probed first and finds rule 2; the ALL bucket must
    # still be searched below it, and no further.
    @example(
        rules=[
            ("+", "bob", ["10.0.0.0/8"], "ALL"),
            ("+", "bob", ["ALL"], "ALL"),
            ("+", "alice", ["10.0.0.0/8"], "ALL"),
            ("-", "alice", ["ALL"], "ALL"),
        ],
        split=4, username="alice", ip="10.1.2.3", seconds=0.0,
    )
    def test_check_equals_the_linear_walk(self, rules, split, username, ip, seconds):
        now = DAY.timestamp() + seconds
        lines = [f"{p} : {a} : {','.join(o)} : {e}" for p, a, o, e in rules]
        # Half loaded as text, the rest appended a line at a time.
        acl = InMemoryExemptionACL("\n".join(lines[:split]), clock=VirtualClock(now))
        for line in lines[split:]:
            acl.append(line)
        assert acl.last_error is None
        assert acl.check(username, ip) is linear_first_match(rules, username, ip, now)
