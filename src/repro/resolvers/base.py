"""The identity-resolver seam: one protocol, many account sources.

LinOTP's deployments sit on a ``UserIdResolver`` abstraction — the token
database references users by an id that an LDAP, SQL or flat-file resolver
maps usernames onto.  Our reproduction originally collapsed that seam into
a single in-process directory lookup; this package reopens it.  A resolver
answers exactly one question — *which local account does this username
name?* — and reports its own health, so a :class:`~repro.resolvers.chain.
ResolverChain` can route between several of them and fail over when one
goes dark.

The contract (:class:`IdentityResolver`) is deliberately tiny:

* ``resolve(username)`` returns a :class:`ResolvedIdentity` on a hit,
  ``None`` on an *authoritative* miss (the source answered: no such
  user), and raises :class:`ResolverUnavailableError` when the source
  itself is down — the distinction the chain's failover logic lives on;
* ``health()`` is the resolver's own liveness view;
* ``snapshot()`` is its counters, surfaced through ``status("resolvers")``
  (under the ``stats`` key).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import TransientBackendError


class ResolverUnavailableError(TransientBackendError):
    """The resolver's backing source is unreachable (not a user miss)."""


def split_realm(username: str) -> Tuple[str, str]:
    """Split ``user@realm`` into ``(local_part, realm)``.

    A bare username has the empty realm, which is the chain's default
    route.  Only the *last* ``@`` counts, so email-style local parts
    survive intact.
    """
    if "@" not in username:
        return username, ""
    local, _, realm = username.rpartition("@")
    return local, realm


@dataclass(frozen=True)
class ResolvedIdentity:
    """The answer a resolver gives: who this username is locally.

    ``uid`` is the unique user id shared by LDAP and the token database
    (the id the paper calls "common to both databases").  Federated
    resolutions carry the home site so the audit trail and risk stage can
    tell a visiting ``alice@partner`` apart from a local ``alice``.
    """

    username: str
    uid: str
    realm: str = ""
    resolver: str = ""
    federated: bool = False
    home_site: str = ""


class IdentityResolver:
    """Base class with the shared bookkeeping every resolver wants.

    Subclasses implement :meth:`_lookup`; this base counts outcomes (under
    a lock never held across the lookup itself — the chain calls from
    every validate thread) and exposes the ``health()``/``snapshot()`` halves
    of the protocol.  ``name`` (a class attribute) is the key a chain
    registers the resolver under.
    """

    name: str

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0

    # -- protocol ----------------------------------------------------------

    def resolve(self, username: str) -> Optional[ResolvedIdentity]:
        """Map ``username`` to a local identity (``None`` = no such user)."""
        try:
            identity = self._lookup(username)
        except ResolverUnavailableError:
            with self._lock:
                self.lookups += 1
                self.errors += 1
            raise
        with self._lock:
            self.lookups += 1
            if identity is None:
                self.misses += 1
            else:
                self.hits += 1
        return identity

    def health(self) -> Dict[str, object]:
        """The resolver's own liveness view (chain adds circuit state)."""
        return {"available": True}

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "errors": self.errors,
            }

    # -- subclass hook -----------------------------------------------------

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        raise NotImplementedError
