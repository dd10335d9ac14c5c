"""The one origin index, through the two layers besides the ACL that file
ranges in it: the risk engine's watchlist (is the source inside any range)
and the GeoIP table (the most specific range's location, the first added
winning among equal ranges).  Both are held to an ``ipaddress`` reference;
the ACL's own differential is tests/pam/test_acl_properties.py."""

import ipaddress
import sys
import threading

from hypothesis import example, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.policy.geo import GeoDatabase, GeoPoint
from repro.policy.risk import RiskEngine
from tests.pam.test_acl_properties import reference_address

#: Addresses the ranges and the sources share, so that ranges nest.
POOL = ["0.0.0.0", "10.0.0.1", "10.0.1.7", "10.1.2.3", "203.0.113.7", "255.255.255.255"]
NOT_ADDRESSES = ["", "host.example", "１.2.3.4", "10.0.0.256", "10.0.0"]

ipv4 = st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v)))
origin = st.one_of(
    st.just("ALL"),
    st.sampled_from(POOL),  # a /32
    st.builds("{}/{}".format, st.sampled_from(POOL), st.sampled_from([0, 8, 16, 24, 32])),
    st.builds("{}/{}".format, ipv4, st.integers(0, 32)),
)
source = st.one_of(st.sampled_from(POOL), ipv4, st.sampled_from(NOT_ADDRESSES))


def prefix_holding(text, ip):
    """The prefix length of ``text``'s range if it holds ``ip``, else None
    (``ALL`` holds any source, as a /0)."""
    if text == "ALL":
        return 0
    address = reference_address(ip)
    network = ipaddress.ip_network(text, strict=False)
    return network.prefixlen if address is not None and address in network else None


def watchlisted(engine, ip):
    return "watchlisted_network" in engine.assess("alice", ip).signals


class TestWatchlistAgainstIpaddress:
    @settings(max_examples=300, deadline=None)
    @given(ranges=st.lists(origin, max_size=12), ip=source)
    @example(ranges=["ALL"], ip="")
    @example(ranges=["ALL"], ip="host.example")
    @example(ranges=["0.0.0.0/0"], ip="１.2.3.4")
    @example(ranges=["0.0.0.0/0"], ip="8.8.8.8")
    @example(ranges=["10.1.2.3/32"], ip="10.1.2.3")
    @example(ranges=["10.1.2.3"], ip="10.1.2.4")
    def test_a_source_is_watchlisted_iff_some_range_holds_it(self, ranges, ip):
        engine = RiskEngine(VirtualClock.at("2016-10-05T09:00:00"))
        for cidr in ranges:
            engine.add_watchlist(cidr)
        expected = any(prefix_holding(cidr, ip) is not None for cidr in ranges)
        assert watchlisted(engine, ip) is expected


def reference_lookup(ranges, ip):
    """The longest prefix holding ``ip``; among equal prefixes the first added."""
    best = None
    for position, text in enumerate(ranges):
        prefix = prefix_holding(text, ip)
        if prefix is not None and (best is None or prefix > best[0]):
            best = (prefix, position)
    return None if best is None else best[1]


def point(position):
    return GeoPoint(0.0, 0.0, "XX", city=str(position))


class TestGeoAgainstIpaddress:
    @settings(max_examples=300, deadline=None)
    @given(ranges=st.lists(origin, max_size=12), ip=source)
    @example(ranges=["ALL", "0.0.0.0/0"], ip="8.8.8.8")
    @example(ranges=["0.0.0.0/0", "ALL"], ip="8.8.8.8")
    @example(ranges=["0.0.0.0/0", "ALL"], ip="host.example")
    @example(ranges=["10.0.0.0/8", "10.0.0.0/8", "10.1.2.3"], ip="10.1.2.3")
    @example(ranges=["10.1.2.3/32", "10.0.0.0/8"], ip="")
    def test_lookup_is_the_longest_prefix_first_added(self, ranges, ip):
        db = GeoDatabase()
        for position, text in enumerate(ranges):
            db.add_range(text, point(position))
        found = db.lookup(ip)
        expected = reference_lookup(ranges, ip)
        assert (None if found is None else int(found.city)) == expected


class TestWatchlistUnderThreads:
    def test_every_assess_after_add_watchlist_returns_fires(self):
        """Assessing threads race the add: once ``add_watchlist`` has
        returned, no assess of an address inside the range may miss it.
        Each thread assesses each of its addresses twice, so an answer the
        first assess computed before the add cannot outlive it."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                engine = RiskEngine(VirtualClock.at("2016-10-05T09:00:00"))
                engine.add_watchlist("198.51.100.0/24")  # a non-empty list to probe
                added = threading.Event()
                misses = []

                def assess(thread):
                    for host in range(400):
                        ip = f"10.{thread}.{host // 256}.{host % 256}"
                        watchlisted(engine, ip)
                        after = added.is_set()
                        if not watchlisted(engine, ip) and after:
                            misses.append(ip)

                threads = [threading.Thread(target=assess, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                engine.add_watchlist("10.0.0.0/8")
                added.set()
                for thread in threads:
                    thread.join()
                assert misses == []
                assert watchlisted(engine, "10.3.1.144")
        finally:
            sys.setswitchinterval(previous)
