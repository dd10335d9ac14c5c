"""Deployment-facing resolver configuration (the ``StorageConfig`` shape).

Every ``MFACenter`` builds one :class:`~repro.resolvers.chain.ResolverChain`
over its identity back end — the only username→uid join, run by the auth
pipeline's ``ResolveIdentity`` stage.  ``MFACenter(resolvers=
ResolverConfig(...))`` tunes it; anything else means the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resolvers.backends import DirectoryResolver, LDAPSimResolver
from repro.resolvers.chain import DEFAULT_CACHE_CAPACITY, ResolverChain


@dataclass(frozen=True)
class ResolverConfig:
    """Tunables for the identity-resolver chain.

    * ``use_ldap`` — register an :class:`LDAPSimResolver` over the
      center's LDAP model *ahead of* the directory resolver, so the
      "remote" source is primary and the in-process directory is the
      failover target (the chaos ``resolver-outage`` plan's shape);
    * ``negative_ttl`` / ``cache_capacity`` — how long the chain's lookup
      cache remembers a miss, and how many entries it holds.
    """

    use_ldap: bool = False
    negative_ttl: float = 30.0
    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    def __post_init__(self) -> None:
        if self.negative_ttl <= 0:
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
        negative_ttl=config.negative_ttl,
        cache_capacity=config.cache_capacity,
    )
    if config.use_ldap:
        chain.register(LDAPSimResolver(identity.ldap, clock=clock))
    chain.register(DirectoryResolver(identity))
    return chain
