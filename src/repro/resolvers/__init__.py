"""Pluggable identity resolvers and federated bearer-token authentication.

The LinOTP-style UserIdResolver seam: multiple account sources behind one
:class:`ResolverChain` (realm routing, EWMA circuit-breaker failover,
TTL'd positive/negative caching), plus the federated login flow — a home
site attests an already-authenticated user with an HMAC-signed bearer
assertion, and the center maps ``user@homesite`` onto a local account
whose risk, lockout and step-up policy apply unchanged.
"""

from repro.resolvers.base import (
    IdentityResolver,
    ResolvedIdentity,
    ResolverUnavailableError,
    split_realm,
)
from repro.resolvers.backends import DirectoryResolver, LDAPSimResolver
from repro.resolvers.chain import ResolverChain
from repro.resolvers.config import ResolverConfig, build_chain
from repro.resolvers.federation import (
    ASSERTION_PREFIX,
    AssertionInvalid,
    AttestationIssuer,
    AttestationVerifier,
    FederatedResolver,
    NonceCache,
    split_assertion_code,
)

__all__ = [
    "ASSERTION_PREFIX",
    "AssertionInvalid",
    "AttestationIssuer",
    "AttestationVerifier",
    "DirectoryResolver",
    "FederatedResolver",
    "IdentityResolver",
    "LDAPSimResolver",
    "NonceCache",
    "ResolvedIdentity",
    "ResolverChain",
    "ResolverConfig",
    "ResolverUnavailableError",
    "build_chain",
    "split_assertion_code",
    "split_realm",
]
