"""Deployment-facing resolver configuration (the ``StorageConfig`` shape).

Every ``MFACenter`` builds one :class:`~repro.resolvers.chain.ResolverChain`
over its identity back end — the only username→uid join, run by the auth
pipeline's ``ResolveIdentity`` stage.  ``MFACenter(resolvers=
ResolverConfig(use_ldap=True))`` puts an LDAP primary in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resolvers.backends import DirectoryResolver, LDAPSimResolver
from repro.resolvers.chain import ResolverChain


@dataclass(frozen=True)
class ResolverConfig:
    """``use_ldap`` registers an :class:`LDAPSimResolver` over the center's
    LDAP model *ahead of* the directory resolver, so the "remote" source is
    primary and the in-process directory its failover target (the chaos
    ``resolver-outage`` plan's shape)."""

    use_ldap: bool = False


def build_chain(
    config: ResolverConfig, identity, clock, telemetry=None
) -> ResolverChain:
    """Assemble the chain a :class:`ResolverConfig` describes.

    Route order on the default realm: LDAP (when enabled) first, the
    authoritative directory second — so the remote source takes traffic
    while healthy and the in-process directory catches its failures.
    """
    chain = ResolverChain(clock=clock, telemetry=telemetry)
    if config.use_ldap:
        chain.register(LDAPSimResolver(identity.ldap, clock=clock))
    chain.register(DirectoryResolver(identity))
    return chain
