"""The resolver chain: realm routing, health-aware failover, TTL caching.

This is the composition layer over :mod:`repro.resolvers.backends`.  One
chain fronts every account source a deployment knows about:

* **Realm routing** — ``alice`` takes the default (empty) realm's route,
  ``alice@partner`` the route registered for ``partner``.  A realm with
  no registered resolvers *fails closed*: the lookup misses (and the
  miss is negative-cached) rather than falling through to some other
  source — exactly one route answers for any username, or none does.
* **Health-aware failover** — each resolver gets an EWMA health score
  and a circuit breaker with the same CLOSED/HALF_OPEN/OPEN shape as
  the RADIUS client (:mod:`repro.common.resilience`, literally shared).
  Healthy resolvers are tried best-score-first; open circuits are
  skipped until their (exponentially backed-off) probe timer fires.
  A resolver raising :class:`ResolverUnavailableError` fails the
  request *over*, not *down*: the next candidate answers and the caller
  never notices.  An authoritative miss, by contrast, is an answer —
  it never triggers failover.
* **TTL'd lookup cache** — positive and negative entries in one
  :class:`~repro.common.cache.BoundedCache`, so repeat-user resolution
  costs a dict probe.  Negative entries expire faster (``NEGATIVE_TTL``)
  so freshly created accounts appear promptly.

Everything is Clock-injected: virtual-time simulations drive cache
expiry, probe timers and latency measurement without wall time.

Every validate resolves through the chain, from as many threads as the
RADIUS tier runs: one lock guards the cache (lookup, expiry, eviction)
and the counters, and is never held across a resolver call.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.common.cache import MISSING, BoundedCache
from repro.common.clock import Clock, WallClock
from repro.common.resilience import CircuitState, HealthTracker
from repro.resolvers.base import (
    IdentityResolver,
    ResolvedIdentity,
    ResolverUnavailableError,
    split_realm,
)
from repro.telemetry import resolve_registry

#: Cache entries beyond this are evicted oldest-first (insertion order).
CACHE_CAPACITY = 4096
#: Seconds a resolved identity stays cached.
CACHE_TTL = 300.0
#: Seconds a miss stays cached.
NEGATIVE_TTL = 30.0


class ResolverChain:
    """Route usernames to resolvers; cache, score and fail over."""

    def __init__(self, clock: Optional[Clock] = None, telemetry=None) -> None:
        self.clock = clock or WallClock()
        self._routes: Dict[str, List[IdentityResolver]] = {}
        self._resolvers: Dict[str, IdentityResolver] = {}
        self._order: Dict[str, int] = {}
        self._cache = BoundedCache(CACHE_CAPACITY)  # name -> identity, None: a miss
        self._lock = threading.Lock()  # the cache and the three counters
        self.negative_hits = 0
        self.failovers = 0
        self.unrouted = 0
        self.telemetry = resolve_registry(telemetry)
        self._h_lookup = self.telemetry.histogram(
            "resolver_lookup_seconds", "identity lookup latency by resolver"
        )
        #: resolver name → its bound series, added as resolvers register.
        self._h_lookup_by_name: Dict[str, object] = {}
        self._tracker = HealthTracker([])

    # -- registration ------------------------------------------------------

    def register(
        self, resolver: IdentityResolver, realms: Tuple[str, ...] = ("",)
    ) -> IdentityResolver:
        """Attach ``resolver`` to one or more realm routes.

        The empty realm is the default route for bare usernames.  Within
        a route, registration order is the tie-break when health scores
        are equal, so register the preferred source first.
        """
        if resolver.name in self._resolvers:
            raise ValueError(f"resolver {resolver.name!r} already registered")
        self._resolvers[resolver.name] = resolver
        self._order[resolver.name] = len(self._order)
        self._tracker.add(resolver.name)
        self._h_lookup_by_name[resolver.name] = self._h_lookup.labels(
            resolver=resolver.name
        )
        for realm in realms:
            self._routes.setdefault(realm, []).append(resolver)
        return resolver

    def add_route(self, realm: str, resolver: IdentityResolver) -> None:
        """Route another realm to ``resolver`` (registering it if new).

        Used when federated home sites join after the chain is built:
        each new site's realm routes to the shared federated resolver.
        """
        if resolver.name not in self._resolvers:
            self.register(resolver, realms=(realm,))
            return
        route = self._routes.setdefault(realm, [])
        if resolver not in route:
            route.append(resolver)

    def resolver(self, name: str) -> IdentityResolver:
        return self._resolvers[name]

    def realms(self) -> List[str]:
        return sorted(self._routes)

    # -- cache -------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self._cache.hits + self._cache.misses

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    def invalidate(self, username: Optional[str] = None) -> None:
        """Drop one cached lookup (or the whole cache)."""
        with self._lock:
            if username is None:
                self._cache.clear()
            else:
                self._cache.pop(username)

    def _cache_put(self, username: str, identity: Optional[ResolvedIdentity]) -> None:
        ttl = CACHE_TTL if identity is not None else NEGATIVE_TTL
        expires = self.clock.now() + ttl
        with self._lock:
            self._cache.put(username, identity, expires)

    # -- resolution --------------------------------------------------------

    def _candidates(self, route: List[IdentityResolver], now: float):
        """``(resolver, needs_probe)`` pairs worth trying: due probes first
        (so an ejected resolver can actually recover even while a healthy
        fallback keeps answering), then healthy circuits best-score-first.
        ``begin_probe`` is deferred to the resolve loop: enumerating a due
        probe must not reset its timer, or a probe skipped because an
        earlier candidate answered would wait a whole extra backed-off
        interval before really being tried."""
        closed = []
        probes = []
        for resolver in route:
            state = self._tracker.state(resolver.name)
            if state is CircuitState.CLOSED:
                closed.append((resolver, False))
            elif self._tracker.probe_due(resolver.name, now):
                probes.append((resolver, True))
        closed.sort(
            key=lambda pair: (
                -self._tracker.health(pair[0].name).score,
                self._order[pair[0].name],
            )
        )
        return probes + closed

    def resolve(self, username: str) -> Optional[ResolvedIdentity]:
        """Resolve ``username`` through its realm's route.

        Returns ``None`` on an authoritative miss (including an unrouted
        realm — fail closed).  Raises :class:`ResolverUnavailableError`
        only when every candidate on the route is down.
        """
        now = self.clock.now()
        with self._lock:
            identity = self._cache.get(username, now)
            if identity is not MISSING:
                if identity is None:
                    self.negative_hits += 1
                return identity
        _, realm = split_realm(username)
        route = self._routes.get(realm)
        if not route:
            with self._lock:
                self.unrouted += 1
            self._cache_put(username, None)
            return None
        attempts = 0
        timed = self.telemetry.enabled
        for resolver, needs_probe in self._candidates(route, now):
            attempts += 1
            if needs_probe:
                self._tracker.begin_probe(resolver.name, self.clock.now())
            began = self.clock.now() if timed else 0.0
            try:
                identity = resolver.resolve(username)
            except ResolverUnavailableError:
                self._tracker.on_failure(resolver.name, self.clock.now())
                continue
            if timed:
                self._h_lookup_by_name[resolver.name].observe(self.clock.now() - began)
            self._tracker.on_success(resolver.name, self.clock.now())
            if attempts > 1:
                with self._lock:
                    self.failovers += 1
            self._cache_put(username, identity)
            return identity
        raise ResolverUnavailableError(
            f"no resolver available for realm {realm or '(default)'!r}"
        )

    # -- admin view --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The ``resolvers`` section of ``OTPServer.status()``: routes,
        health, cache, stats."""
        tracked = self._tracker.snapshot()
        resolvers = {
            name: {
                **tracked[name],
                "health": resolver.health(),
                "stats": resolver.stats(),
            }
            for name, resolver in self._resolvers.items()
        }
        realms = {
            realm or "(default)": [r.name for r in route]
            for realm, route in sorted(self._routes.items())
        }
        with self._lock:
            return {
                "configured": True,
                "realms": realms,
                "resolvers": resolvers,
                "cache": self._cache.snapshot(),
                "negative_hits": self.negative_hits,
                "lookups": self.lookups,
                "failovers": self.failovers,
                "unrouted": self.unrouted,
            }
