"""Concrete identity resolvers: directory, LDAP, flat-file.

Each backend answers the resolver protocol over a different account
source — the shapes LinOTP's UserIdResolver supports:

* :class:`DirectoryResolver` — today's in-process identity back end
  (:mod:`repro.directory.identity`), the authoritative account database;
* :class:`LDAPSimResolver` — a ``uid`` equality search against the LDAP
  model (:mod:`repro.directory.ldap`) with injectable latency and fault knobs,
  so chaos plans and benchmarks can make the "remote" source slow or
  dark on demand;
* :class:`FlatFileResolver` — passwd-style ``username:uid`` lines, the
  escape hatch every deployment keeps for service accounts.

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

    def __init__(self, identity, name: str = "directory") -> None:
        super().__init__(name)
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

    def __init__(
        self,
        ldap,
        name: str = "ldap",
        clock: Optional[Clock] = None,
        base: str = "ou=people,dc=center,dc=edu",
        latency: float = 0.0,
    ) -> None:
        super().__init__(name)
        self._ldap = ldap
        self._clock = clock or WallClock()
        self._base = base
        self._latency = float(latency)
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


class FlatFileResolver(IdentityResolver):
    """Resolve from passwd-style ``username:uid`` lines.

    Blank lines and ``#`` comments are ignored, like every Unix table
    file.  A real ``/etc/passwd`` excerpt parses as-is: when a line has
    three or more fields and the second is non-numeric (a password
    placeholder like ``x``, ``*``, ``!`` or a hash), the uid is the
    third field; otherwise the second field is the uid.  Extra fields
    beyond the uid are ignored.
    """

    def __init__(self, text: str = "", name: str = "flatfile") -> None:
        super().__init__(name)
        self._table: Dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) < 2 or not parts[0]:
                raise ValueError(f"malformed flat-file line: {line!r}")
            if len(parts) >= 3 and not parts[1].isdigit():
                uid = parts[2]
            else:
                uid = parts[1]
            self._table[parts[0]] = uid

    def add(self, username: str, uid: str) -> None:
        self._table[username] = str(uid)

    def __len__(self) -> int:
        return len(self._table)

    def _lookup(self, username: str) -> Optional[ResolvedIdentity]:
        local, realm = split_realm(username)
        uid = self._table.get(local)
        if uid is None:
            return None
        return ResolvedIdentity(
            username=username, uid=uid, realm=realm, resolver=self.name
        )
