"""Property-based contracts of the resolver chain (Hypothesis).

Four invariants, for any realm topology and any failure pattern an
operator (or chaos plan) can produce:

* **routing is exclusive** — a username resolves through exactly one
  realm route, or fails closed; no lookup ever crosses realms;
* **negative-cache TTL** — an authoritative miss is served from cache
  until ``NEGATIVE_TTL`` elapses, and refetched right after;
* **failover/recovery ordering** — the EWMA score keeps a once-failed
  primary demoted below the healthy fallback until the primary actually
  answers again, and recovery never routes through the dead resolver;
* **no choice, no list** — where a route offers no choice (one resolver,
  no circuit ejected anywhere) the chain skips ``_candidates``, and what it
  tries is what ``_candidates`` would have listed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.resolvers import IdentityResolver, ResolvedIdentity, ResolverChain
from repro.resolvers import chain as chain_module
from repro.resolvers.base import ResolverUnavailableError, split_realm


class TableResolver(IdentityResolver):
    """Resolves a fixed username set; records what it was asked."""

    def __init__(self, name, users, down=False):
        super().__init__()
        self.name = name
        self.users = set(users)
        self.down = down
        self.asked = []

    def _lookup(self, username):
        self.asked.append(username)
        if self.down:
            raise ResolverUnavailableError(f"resolver {self.name!r} is down")
        local, realm = split_realm(username)
        if local not in self.users:
            return None
        return ResolvedIdentity(
            username=username, uid=f"uid-{local}", realm=realm, resolver=self.name
        )


def fresh_clock():
    return VirtualClock.at("2016-10-05T09:00:00")


local_name = st.text(
    alphabet="abcdefghij", min_size=1, max_size=6
).filter(lambda s: "@" not in s)
realm_name = st.sampled_from(["", "partner", "site-b", "nowhere"])


@settings(max_examples=60, deadline=None)
@given(
    routed=st.dictionaries(
        st.sampled_from(["", "partner", "site-b"]),
        st.sets(local_name, min_size=0, max_size=5),
        min_size=1,
        max_size=3,
    ),
    local=local_name,
    realm=realm_name,
)
def test_every_lookup_routes_to_exactly_one_realm_or_fails_closed(
    routed, local, realm
):
    chain = ResolverChain(clock=fresh_clock())
    backends = {
        r: chain.register(
            TableResolver(f"res-{r or 'default'}", users), realms=(r,)
        )
        for r, users in routed.items()
    }
    username = f"{local}@{realm}" if realm else local
    found = chain.resolve(username)
    if realm not in routed:
        # Unrouted realm: fail closed, and nobody was consulted.
        assert found is None
        assert all(not b.asked for b in backends.values())
    else:
        # Exactly the owning realm's resolver was consulted — never a
        # sibling realm's, even when it knows the same local name.
        for r, backend in backends.items():
            assert bool(backend.asked) == (r == realm)
        if local in routed[realm]:
            assert found is not None and found.resolver == backends[realm].name
        else:
            assert found is None


@settings(max_examples=40, deadline=None)
@given(
    negative_ttl=st.floats(min_value=0.5, max_value=120.0, allow_nan=False),
    probe_offsets=st.lists(
        st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
)
def test_negative_cache_serves_misses_until_ttl_then_refetches(
    negative_ttl, probe_offsets
):
    clock = fresh_clock()
    chain = ResolverChain(clock=clock)
    backend = chain.register(TableResolver("only", users=[]))
    # The TTL is stamped on the entry as an absolute expiry when the miss is
    # cached, so the constant only has to hold for that one lookup.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "NEGATIVE_TTL", negative_ttl)
        assert chain.resolve("ghost") is None
    assert backend.lookups == 1
    # Any number of probes strictly inside the TTL window hit the
    # negative cache without consulting the backend.
    base = clock.now()
    for offset in sorted(probe_offsets):
        target = base + offset * negative_ttl
        if target > clock.now():
            clock.advance(target - clock.now())
        assert chain.resolve("ghost") is None
    assert backend.lookups == 1
    assert chain.negative_hits == len(probe_offsets)
    # At/after expiry the miss is re-asked — a just-created account with
    # this name would now be visible.
    backend.users.add("ghost")
    clock.advance(base + negative_ttl + 0.001 - clock.now())
    assert chain.resolve("ghost") is not None
    assert backend.lookups == 2


@settings(max_examples=40, deadline=None)
@given(
    outage_lookups=st.integers(min_value=1, max_value=6),
    healthy_lookups=st.integers(min_value=1, max_value=6),
)
def test_failover_demotes_primary_until_it_answers_again(
    outage_lookups, healthy_lookups
):
    clock = fresh_clock()
    chain = ResolverChain(clock=clock)
    primary = chain.register(TableResolver("primary", users=["alice"], down=True))
    fallback = chain.register(TableResolver("fallback", users=["alice"]))

    def score(name):
        return chain.snapshot()["resolvers"][name]["score"]

    for _ in range(outage_lookups):
        assert chain.resolve("alice").resolver == "fallback"
        chain.invalidate()
    assert score("primary") < score("fallback")
    # Recovery ordering: while demoted, the primary sees no traffic even
    # after it silently comes back — the healthy fallback keeps serving.
    primary.down = False
    asked_before = len(primary.asked)
    for _ in range(healthy_lookups):
        assert chain.resolve("alice").resolver == "fallback"
        chain.invalidate()
    assert len(primary.asked) == asked_before
    assert score("primary") < score("fallback")
    # Only once the fallback itself degrades does the primary get asked
    # again — and its first success starts re-promoting its score.
    fallback.down = True
    demoted = score("primary")
    assert chain.resolve("alice").resolver == "primary"
    assert score("primary") > demoted



class LoggedResolver(TableResolver):
    """A :class:`TableResolver` that also logs its name to a shared list, so
    the order in which a lookup asked several resolvers shows."""

    def __init__(self, name, users, log):
        super().__init__(name, users)
        self.log = log

    def _lookup(self, username):
        self.log.append(self.name)
        return super()._lookup(username)


step = st.one_of(
    st.tuples(st.just("default"), st.lists(st.booleans(), min_size=2, max_size=2)),
    st.tuples(st.just("partner"), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 31.0, 250.0])),
)


@settings(max_examples=80, deadline=None)
@given(resolvers=st.integers(min_value=1, max_value=2), steps=st.lists(step, max_size=25))
def test_a_route_with_no_choice_tries_what_candidates_lists(resolvers, steps):
    """One or two resolvers on the default route, one on ``partner``; any of
    them up or down at each lookup (a down partner is an ejected circuit on
    another route).  Where the route offers no choice, ``_candidates`` lists
    just its one resolver; and every default-route lookup asks the resolvers
    ``_candidates`` lists, in its order, up to the first that answers."""
    clock = fresh_clock()
    chain = ResolverChain(clock=clock)
    asked = []
    route = [
        chain.register(LoggedResolver(f"r{i}", ["alice"], asked)) for i in range(resolvers)
    ]
    partner = chain.register(TableResolver("p", users=["bob"]), realms=("partner",))
    for kind, arg in steps:
        if kind == "advance":
            clock.advance(arg)
            continue
        chain.invalidate()
        if kind == "partner":
            partner.down = arg
            try:
                chain.resolve("bob@partner")
            except ResolverUnavailableError:
                pass
            continue
        for resolver, down in zip(route, arg):
            resolver.down = down
        listed = [r.name for r, _ in chain._candidates(route, clock.now())]
        if len(route) == 1 and chain._tracker.ejected == 0:
            assert chain._candidates(route, clock.now()) == [(route[0], False)]
        up = [name for name in listed if not chain.resolver(name).down]
        expect = listed[: listed.index(up[0]) + 1] if up else listed
        asked.clear()
        try:
            found = chain.resolve("alice")
        except ResolverUnavailableError:
            assert not up
        else:
            assert found.resolver == up[0]
        assert asked == expect
