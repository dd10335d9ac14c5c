"""The resolver chain: realm routing, failover, circuits, the TTL cache."""

import pytest

from repro.common.clock import VirtualClock
from repro.common import resilience
from repro.common.resilience import CircuitState
from repro.resolvers import (
    IdentityResolver,
    ResolvedIdentity,
    ResolverChain,
    ResolverUnavailableError,
)
from repro.resolvers import chain as chain_module
from repro.resolvers.base import split_realm


class StubResolver(IdentityResolver):
    """An in-memory resolver with a kill switch, for chain surgery."""

    def __init__(self, name, users=(), down=False):
        super().__init__(name)
        self.users = {u: f"uid-{u}" for u in users}
        self.down = down

    def _lookup(self, username):
        if self.down:
            raise ResolverUnavailableError(f"resolver {self.name!r} is down")
        local, realm = split_realm(username)
        uid = self.users.get(local)
        if uid is None:
            return None
        return ResolvedIdentity(
            username=username, uid=uid, realm=realm, resolver=self.name
        )


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def make_chain(clock):
    return ResolverChain(clock=clock)


class TestRegistration:
    def test_duplicate_name_rejected(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("a"))
        with pytest.raises(ValueError, match="already registered"):
            chain.register(StubResolver("a"))

    def test_unknown_resolver_lookup_raises(self, clock):
        with pytest.raises(KeyError):
            make_chain(clock).resolver("ghost")

    def test_add_route_registers_new_and_reroutes_known(self, clock):
        chain = make_chain(clock)
        shared = StubResolver("fed", users=["alice"])
        chain.add_route("site-a", shared)
        chain.add_route("site-b", shared)
        assert chain.realms() == ["site-a", "site-b"]
        assert chain.resolve("alice@site-a").uid == "uid-alice"
        assert chain.resolve("alice@site-b").uid == "uid-alice"

    def test_invalid_cache_settings_rejected(self, clock, monkeypatch):
        monkeypatch.setattr(chain_module, "CACHE_CAPACITY", 0)
        with pytest.raises(ValueError, match="capacity"):
            make_chain(clock)


class TestRealmRouting:
    def test_bare_username_takes_default_route(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("local", users=["alice"]))
        chain.register(StubResolver("partner", users=["alice"]), realms=("partner",))
        assert chain.resolve("alice").resolver == "local"
        assert chain.resolve("alice@partner").resolver == "partner"

    def test_unrouted_realm_fails_closed(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("local", users=["alice"]))
        # alice exists on the default route, but the realm has no route:
        # the lookup must NOT fall through to some other source.
        assert chain.resolve("alice@nowhere") is None
        assert chain.unrouted == 1
        # ... and the miss is negative-cached.
        assert chain.resolve("alice@nowhere") is None
        assert chain.negative_hits == 1


class TestFailover:
    def test_unavailable_primary_fails_over_to_fallback(self, clock):
        chain = make_chain(clock)
        primary = chain.register(StubResolver("primary", users=["alice"], down=True))
        chain.register(StubResolver("fallback", users=["alice"]))
        found = chain.resolve("alice")
        assert found.resolver == "fallback"
        assert chain.failovers == 1
        assert primary.errors == 1

    def test_authoritative_miss_never_fails_over(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("primary", users=[]))
        fallback = chain.register(StubResolver("fallback", users=["alice"]))
        # primary answered "no such user" — that is an answer, not an error.
        assert chain.resolve("alice") is None
        assert fallback.lookups == 0
        assert chain.failovers == 0

    def test_all_candidates_down_raises(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("a", users=["alice"], down=True))
        chain.register(StubResolver("b", users=["alice"], down=True))
        with pytest.raises(ResolverUnavailableError, match="no resolver available"):
            chain.resolve("alice")

    def test_failures_demote_score_so_fallback_takes_traffic(self, clock):
        chain = make_chain(clock)
        primary = chain.register(StubResolver("primary", users=["alice"], down=True))
        chain.register(StubResolver("fallback", users=["alice"]))
        for _ in range(5):
            assert chain.resolve("alice").resolver == "fallback"
            chain.invalidate()
        snap = chain.snapshot()["resolvers"]
        assert snap["primary"]["score"] < snap["fallback"]["score"]
        # After the first failover the demoted primary sits behind the
        # healthy fallback in best-score-first order, so it eats exactly
        # one error and then stops seeing live traffic at all.
        assert primary.errors == 1
        assert chain.failovers == 1

    def test_untried_due_probe_is_not_consumed_by_enumeration(self, clock, monkeypatch):
        """Enumerating candidates must not burn a probe: when two circuits
        are due and the first probe answers, the second resolver was never
        actually tried, so it must stay OPEN with its timer intact and be
        probed (and recover) on the very next lookup — not sit HALF_OPEN
        waiting out another backed-off interval."""
        monkeypatch.setattr(resilience, "FAILURE_THRESHOLD", 1)
        chain = make_chain(clock)  # probes after PROBE_INTERVAL = 30 s
        a = chain.register(StubResolver("a", users=["alice"], down=True))
        b = chain.register(StubResolver("b", users=["alice"], down=True))
        with pytest.raises(ResolverUnavailableError):
            chain.resolve("alice")  # both circuits open
        clock.advance(31.0)  # both probes due
        a.down = False
        assert chain.resolve("alice").resolver == "a"  # a's probe answers
        assert b.lookups == 1  # b was not tried again
        snap = chain.snapshot()["resolvers"]
        assert snap["b"]["state"] == CircuitState.OPEN.value
        # b's probe is still due, so the moment it comes back it recovers
        # on the next lookup instead of waiting out a fresh interval.
        chain.invalidate()
        b.down = False
        assert chain.resolve("alice").resolver == "b"
        assert (
            chain.snapshot()["resolvers"]["b"]["state"]
            == CircuitState.CLOSED.value
        )

    def test_sole_resolver_circuit_opens_then_probe_recovers(self, clock):
        chain = make_chain(clock)  # opens after 3 failures, probes after 30 s
        only = chain.register(StubResolver("only", users=["alice"], down=True))
        for _ in range(3):
            with pytest.raises(ResolverUnavailableError):
                chain.resolve("alice")
        assert chain.snapshot()["resolvers"]["only"]["state"] == CircuitState.OPEN.value
        # While the circuit is open and the probe timer is running the
        # resolver is not even tried.
        with pytest.raises(ResolverUnavailableError):
            chain.resolve("alice")
        assert only.errors == 3
        clock.advance(31.0)
        only.down = False
        assert chain.resolve("alice") is not None
        assert (
            chain.snapshot()["resolvers"]["only"]["state"]
            == CircuitState.CLOSED.value
        )


class TestCache:
    def test_repeat_lookup_is_a_cache_hit(self, clock):
        chain = make_chain(clock)
        backend = chain.register(StubResolver("a", users=["alice"]))
        chain.resolve("alice")
        chain.resolve("alice")
        assert chain.cache_hits == 1 and backend.lookups == 1

    def test_negative_entries_expire_faster(self, clock):
        chain = make_chain(clock)
        backend = chain.register(StubResolver("a", users=[]))
        assert chain.resolve("newbie") is None
        assert chain_module.NEGATIVE_TTL < chain_module.CACHE_TTL
        clock.advance(chain_module.NEGATIVE_TTL + 1.0)
        backend.users["newbie"] = "uid-newbie"
        assert chain.resolve("newbie") is not None  # fresh account visible

    def test_capacity_evicts_oldest_first(self, clock, monkeypatch):
        monkeypatch.setattr(chain_module, "CACHE_CAPACITY", 2)
        chain = make_chain(clock)
        backend = chain.register(StubResolver("a", users=["u1", "u2", "u3"]))
        chain.resolve("u1")
        chain.resolve("u2")
        chain.resolve("u3")  # evicts u1
        chain.resolve("u1")
        assert backend.lookups == 4
        assert chain.cache_hits == 0

    def test_invalidate_single_user_and_whole_cache(self, clock):
        chain = make_chain(clock)
        backend = chain.register(StubResolver("a", users=["u1", "u2"]))
        chain.resolve("u1")
        chain.resolve("u2")
        chain.invalidate("u1")
        chain.resolve("u1")
        chain.resolve("u2")
        assert backend.lookups == 3
        chain.invalidate()
        chain.resolve("u2")
        assert backend.lookups == 4


class TestSnapshot:
    def test_snapshot_shape(self, clock):
        chain = make_chain(clock)
        chain.register(StubResolver("a", users=["alice"]))
        chain.register(StubResolver("fed", users=["bob"]), realms=("partner",))
        chain.resolve("alice")
        snap = chain.snapshot()
        assert snap["configured"] is True
        assert snap["realms"] == {"(default)": ["a"], "partner": ["fed"]}
        assert snap["resolvers"]["a"]["state"] == "closed"
        assert snap["resolvers"]["a"]["stats"]["hits"] == 1
        assert snap["cache"] == {
            "entries": 1, "capacity": chain_module.CACHE_CAPACITY,
            "hits": 0, "misses": 1, "hit_ratio": 0.0,
        }
        assert snap["lookups"] == 1 and snap["failovers"] == 0
        assert snap["negative_hits"] == 0
