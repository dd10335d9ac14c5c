"""Concrete identity resolvers: directory and LDAP.

Each backend answers the resolver protocol over a different account
source — the shapes LinOTP's UserIdResolver supports:

* :class:`DirectoryResolver` — today's in-process identity back end
  (:mod:`repro.directory.identity`), the authoritative account database;
* :class:`LDAPSimResolver` — a ``uid`` equality search against the LDAP
  model (:mod:`repro.directory.ldap`) with injectable latency and fault knobs,
  so chaos plans and benchmarks can make the "remote" source slow or
  dark on demand.

Caching is the chain's job (:class:`~repro.resolvers.chain.ResolverChain`
keeps the one TTL'd lookup cache); backends answer every call.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError
from repro.resolvers.base import (
    IdentityResolver,
    ResolvedIdentity,
    ResolverUnavailableError,
    split_realm,
)

class DirectoryResolver(IdentityResolver):
    """Resolve against the center's identity back end (authoritative)."""

    name = "directory"

    def __init__(self, identity) -> None:
        super().__init__()
        self._identity = identity

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        local, realm = split_realm(username) if "@" in username else (username, "")
        try:
            account = self._identity.get(local)
        except NotFoundError:
            return None
        return ResolvedIdentity(
            username=username, uid=account.uid, realm=realm, resolver=self.name
        )


class LDAPSimResolver(IdentityResolver):
    """Resolve via an LDAP ``uid`` equality search, with latency/fault injection.

    The knobs model the remote directory misbehaving:

    * :meth:`set_latency` — every lookup costs that many (clock) seconds;
    * :meth:`set_outage` — while on, every lookup raises
      :class:`ResolverUnavailableError` (the ``ResolverOutage`` chaos
      fault flips this);
    * :meth:`inject_failures` — the next N lookups fail, then recover
      (for exercising the circuit breaker's probe ladder).
    """

    name = "ldap"

    def __init__(
        self, ldap, clock: Optional[Clock] = None, base: Optional[str] = None
    ) -> None:
        super().__init__()
        self._ldap = ldap
        self._clock = clock or WallClock()
        self._base = base or ldap.people_base
        self._latency = 0.0
        self._outage = False
        self._failures_left = 0

    # -- fault knobs -------------------------------------------------------

    def set_latency(self, seconds: float) -> None:
        self._latency = float(seconds)

    def set_outage(self, down: bool) -> None:
        self._outage = bool(down)

    def inject_failures(self, count: int) -> None:
        self._failures_left = int(count)

    # -- protocol ----------------------------------------------------------

    def health(self) -> Dict[str, object]:
        return {"available": not self._outage, "latency_seconds": self._latency}

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        if self._outage:
            raise ResolverUnavailableError(f"resolver {self.name!r} is down")
        if self._failures_left > 0:
            self._failures_left -= 1
            raise ResolverUnavailableError(f"resolver {self.name!r} timed out")
        if self._latency > 0:
            self._clock.sleep(self._latency)
        local, realm = split_realm(username)
        # The login name is compared as a literal, never parsed.  The
        # directory matches uids case-insensitively; the name resolves only
        # to an entry whose uid is exactly it, as the account database keys
        # it, so both resolvers map one name to one identity.
        for entry in self._ldap.search(
            self._base, (("objectclass", "posixaccount"), ("uid", local))
        ):
            if local in entry.get("uid"):
                uid = entry.first("uidnumber")
                if uid is None:
                    return None
                return ResolvedIdentity(
                    username=username, uid=uid, realm=realm, resolver=self.name
                )
        return None

