"""The MFA exemption access-control list (Section 3.4).

"The configuration file extends typical PAM access configuration syntax and
allows for either permanent exemptions or for temporary variances that will
automatically expire if the date has passed.  Individual accounts, specific
IP addresses or IP ranges, or any combination of the two may be targeted
... special "ALL" keywords can be set in the date, account, and IP address
fields ... By default, all accounts are subject to multi-factor
authentication and are denied an MFA exemption."

Line format (first matching, unexpired rule wins; default deny)::

    # permission : accounts : origins : expiry
    + : gateway01,community02 : ALL : ALL
    + : ALL : 129.114.0.0/16 : ALL
    + : jdoe : 203.0.113.7 : 2016-10-15
    - : ALL : 198.51.100.0/24 : ALL

"Changes take effect immediately upon write to disk" — the ACL re-reads
its file whenever the mtime changes, so operators edit exemptions live.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime
from typing import List, Optional, Tuple

from repro.common.clock import Clock, WallClock, parse_date
from repro.common.errors import ConfigurationError
from repro.common.origin import OriginMatcher, ipv4_to_int


@dataclass(frozen=True)
class ExemptionRule:
    """One parsed line."""

    grant: bool
    accounts: Tuple[str, ...]  # empty tuple == ALL
    origins: Tuple[OriginMatcher, ...]
    expiry: Optional[datetime]  # None == ALL (never expires)
    lineno: int = 0

    def matches(self, username: str, address: Optional[int], now: float) -> bool:
        """``address`` is the origin as :func:`ipv4_to_int` read it."""
        if self.accounts and username not in self.accounts:
            return False
        for origin in self.origins:
            if origin.covers(address):
                # "temporary variances that will automatically expire"
                return self.expiry is None or now <= self.expiry.timestamp()
        return False


def parse_rules(text: str) -> List[ExemptionRule]:
    """Parse ACL text; raises :class:`ConfigurationError` with line numbers."""
    rules: List[ExemptionRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(":")]
        if len(fields) != 4:
            raise ConfigurationError(
                f"ACL line {lineno}: expected 4 ':'-separated fields, got {len(fields)}"
            )
        permission, accounts_field, origins_field, expiry_field = fields
        if permission not in ("+", "-"):
            raise ConfigurationError(
                f"ACL line {lineno}: permission must be '+' or '-', got {permission!r}"
            )
        if accounts_field.upper() == "ALL":
            accounts: Tuple[str, ...] = ()
        else:
            accounts = tuple(a.strip() for a in accounts_field.split(",") if a.strip())
            if not accounts:
                raise ConfigurationError(f"ACL line {lineno}: empty accounts field")
        origins = tuple(
            OriginMatcher.parse(o) for o in origins_field.split(",") if o.strip()
        )
        if not origins:
            raise ConfigurationError(f"ACL line {lineno}: empty origins field")
        if expiry_field.upper() == "ALL":
            expiry: Optional[datetime] = None
        else:
            try:
                # The expiry covers the whole named day.
                expiry = parse_date(expiry_field).replace(
                    hour=23, minute=59, second=59
                )
            except ValueError as exc:
                raise ConfigurationError(
                    f"ACL line {lineno}: bad expiry date {expiry_field!r}"
                ) from exc
        rules.append(
            ExemptionRule(permission == "+", accounts, origins, expiry, lineno)
        )
    return rules


class ExemptionACL:
    """A hot-reloading exemption policy backed by a file.

    ``check(user, ip)`` answers the Figure-1 "MFA Exemption Granted?"
    question.  A parse failure during a live reload fails closed — no
    exemptions — and surfaces through :attr:`last_error`, matching the
    infrastructure's bias that misconfiguration must never widen access.
    """

    def __init__(self, path: str, clock: Optional[Clock] = None) -> None:
        self.path = path
        self._clock = clock or WallClock()
        self._rules: List[ExemptionRule] = []
        self._mtime: Optional[float] = None
        self.last_error: Optional[str] = None
        self.reload()

    def reload(self) -> None:
        """Force a re-read of the file (missing file == empty policy)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
            self._mtime = os.stat(self.path).st_mtime
        except FileNotFoundError:
            self._rules = []
            self._mtime = None
            self.last_error = None
            return
        try:
            self._rules = parse_rules(text)
            self.last_error = None
        except ConfigurationError as exc:
            self._rules = []
            self.last_error = str(exc)

    def _maybe_reload(self) -> None:
        try:
            mtime = os.stat(self.path).st_mtime
        except FileNotFoundError:
            if self._mtime is not None:
                self.reload()
            return
        if mtime != self._mtime:
            self.reload()

    def rules(self) -> List[ExemptionRule]:
        self._maybe_reload()
        return list(self._rules)

    def check(self, username: str, ip: str) -> bool:
        """True iff an exemption is granted.  First match wins; default deny."""
        self._maybe_reload()
        # Read once per request, in the form every rule uses them.
        address = ipv4_to_int(ip)
        now = self._clock.now()
        for rule in self._rules:
            if rule.matches(username, address, now):
                return rule.grant
        return False


class InMemoryExemptionACL(ExemptionACL):
    """ACL variant fed from a string — used by simulations that configure
    thousands of per-system policies without touching the filesystem."""

    def __init__(self, text: str = "", clock: Optional[Clock] = None) -> None:
        self._clock = clock or WallClock()
        self.path = "<memory>"
        self._mtime = None
        self.last_error = None
        self._rules = []
        self.set_text(text)

    def set_text(self, text: str) -> None:
        try:
            self._rules = parse_rules(text)
            self.last_error = None
        except ConfigurationError as exc:
            self._rules = []
            self.last_error = str(exc)

    def reload(self) -> None:  # nothing to re-read
        pass

    def _maybe_reload(self) -> None:
        pass
