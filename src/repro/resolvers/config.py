"""Deployment-facing resolver configuration (the ``StorageConfig`` shape).

Every ``MFACenter`` builds one :class:`~repro.resolvers.chain.ResolverChain`
over its identity back end — the only username→uid join, run by the auth
pipeline's ``ResolveIdentity`` stage.  ``MFACenter(resolvers=
ResolverConfig(...))`` tunes it; anything else means the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.common.resilience import FailoverPolicy
from repro.resolvers.backends import DirectoryResolver, LDAPSimResolver
from repro.resolvers.chain import DEFAULT_CACHE_CAPACITY, ResolverChain


@dataclass(frozen=True)
class ResolverConfig:
    """Tunables for the identity-resolver chain.

    * ``use_ldap`` — register an :class:`LDAPSimResolver` over the
      center's LDAP model *ahead of* the directory resolver, so the
      "remote" source is primary and the in-process directory is the
      failover target (the chaos ``resolver-outage`` plan's shape);
    * ``cache_ttl`` / ``negative_ttl`` — the chain's positive/negative
      lookup-cache lifetimes;
    * ``failover`` — the EWMA circuit-breaker policy (identical shape to
      the RADIUS client's).
    """

    use_ldap: bool = False
    cache_ttl: float = 300.0
    negative_ttl: float = 30.0
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    failover: FailoverPolicy = field(default_factory=FailoverPolicy)

    def __post_init__(self) -> None:
        if self.cache_ttl <= 0 or self.negative_ttl <= 0:
            raise ValueError("cache TTLs must be positive")
        if self.cache_capacity < 1:
            raise ValueError("cache capacity must be at least 1")


def build_chain(
    config: ResolverConfig, identity, clock, telemetry=None
) -> ResolverChain:
    """Assemble the chain a :class:`ResolverConfig` describes.

    Route order on the default realm: LDAP (when enabled) first, the
    authoritative directory second — so the remote source takes traffic
    while healthy and the in-process directory catches its failures.
    """
    chain = ResolverChain(
        clock=clock,
        telemetry=telemetry,
        policy=config.failover,
        cache_ttl=config.cache_ttl,
        negative_ttl=config.negative_ttl,
        cache_capacity=config.cache_capacity,
    )
    if config.use_ldap:
        chain.register(LDAPSimResolver(identity.ldap, clock=clock))
    chain.register(DirectoryResolver(identity))
    return chain
