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

A dated variance covers the whole named day: it lapses at 00:00 UTC of the
day after.

"Changes take effect immediately upon write to disk" — the ACL re-reads
its file whenever the mtime changes, so operators edit exemptions live.

The rules are compiled when they load, into origin buckets: one per
distinct prefix mask among the rules' origins (a dict from network to the
ascending positions of the rules naming it), plus one ``ALL`` bucket, the
only one a source that is not an address can reach.  ``check`` probes a
bucket with one dict lookup, in order of the bucket's lowest position, and
stops once no bucket left can hold an earlier rule than the best match so
far: an exemption costs the same at 200 rules as at one, and grants exactly
what the first-match walk down the list would.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.common.clock import Clock, WallClock, parse_date
from repro.common.errors import ConfigurationError
from repro.common.origin import OriginMatcher, ipv4_to_int

_DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class ExemptionRule:
    """One parsed line."""

    grant: bool
    accounts: Tuple[str, ...]  # empty tuple == ALL
    origins: Tuple[OriginMatcher, ...]
    expiry: Optional[datetime]  # 00:00 of the last day covered; None == ALL
    lineno: int = 0


def parse_rules(text: str, first_lineno: int = 1) -> List[ExemptionRule]:
    """Parse ACL text; raises :class:`ConfigurationError` with line numbers
    (the first line of ``text`` is line ``first_lineno``)."""
    rules: List[ExemptionRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=first_lineno):
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
                expiry = parse_date(expiry_field).replace(
                    hour=0, minute=0, second=0, microsecond=0
                )
            except ValueError as exc:
                raise ConfigurationError(
                    f"ACL line {lineno}: bad expiry date {expiry_field!r}"
                ) from exc
        rules.append(
            ExemptionRule(permission == "+", accounts, origins, expiry, lineno)
        )
    return rules


class _Compiled:
    """Rules in the form :meth:`ExemptionACL.check` probes them (see the
    module docstring).  Only ever extended: a reload builds a new one."""

    def __init__(self, rules: Iterable[ExemptionRule] = ()) -> None:
        self.rules: List[ExemptionRule] = []
        #: Per position: (grant, accounts or empty for ALL, the timestamp
        #: the rule lapses at or None).
        self.entries: List[Tuple[bool, FrozenSet[str], Optional[float]]] = []
        #: (lowest position, mask, table) by lowest position.  The table
        #: maps a network to its ascending positions; the ALL bucket's mask
        #: is None and its table is the positions themselves.
        self.buckets: List[tuple] = []
        self._by_mask: Dict[Optional[int], tuple] = {}
        self.extend(rules)

    def extend(self, rules: Iterable[ExemptionRule]) -> None:
        for rule in rules:
            position = len(self.entries)
            lapses = None
            if rule.expiry is not None:  # it covers the whole named day
                lapses = rule.expiry.timestamp() + _DAY_SECONDS
            # Entry first: a concurrent check never finds a position whose
            # entry is missing.
            self.entries.append((rule.grant, frozenset(rule.accounts), lapses))
            self.rules.append(rule)
            for origin in rule.origins:
                mask = None if origin.match_all else origin.mask
                bucket = self._by_mask.get(mask)
                if bucket is None:
                    bucket = (position, mask, [] if mask is None else {})
                    self._by_mask[mask] = bucket
                    self.buckets.append(bucket)
                table = bucket[2]
                positions = table if mask is None else table.setdefault(origin.network, [])
                if not positions or positions[-1] != position:
                    positions.append(position)


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
        self._compiled = _Compiled()
        self._mtime: Optional[float] = None
        self.last_error: Optional[str] = None
        self.reload()

    def _load(self, text: str) -> None:
        try:
            self._compiled = _Compiled(parse_rules(text))
            self.last_error = None
        except ConfigurationError as exc:
            self._compiled = _Compiled()
            self.last_error = str(exc)

    def reload(self) -> None:
        """Force a re-read of the file (missing file == empty policy)."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                text = handle.read()
            self._mtime = os.stat(self.path).st_mtime
        except FileNotFoundError:
            self._compiled = _Compiled()
            self._mtime = None
            self.last_error = None
            return
        self._load(text)

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
        return list(self._compiled.rules)

    def check(self, username: str, ip: str) -> bool:
        """True iff an exemption is granted.  First match wins; default deny."""
        self._maybe_reload()
        compiled = self._compiled
        entries = compiled.entries
        # Read once per request, in the form every bucket uses them.
        address = ipv4_to_int(ip)
        now = self._clock.now()
        end = best = len(entries)
        for lowest, mask, table in compiled.buckets:
            if lowest >= best:
                break  # no bucket left holds a rule before the best match
            if mask is None:
                positions = table
            elif address is not None and (network := address & mask) in table:
                positions = table[network]
            else:
                continue
            for position in positions:
                if position >= best:
                    break
                _, accounts, lapses = entries[position]
                if (not accounts or username in accounts) and (
                    lapses is None or now < lapses
                ):
                    best = position
                    break
        return best != end and entries[best][0]


class InMemoryExemptionACL(ExemptionACL):
    """ACL variant fed from a string — used by simulations that configure
    thousands of per-system policies without touching the filesystem."""

    def __init__(self, text: str = "", clock: Optional[Clock] = None) -> None:
        self._clock = clock or WallClock()
        self.path = "<memory>"
        self._mtime = None
        self.last_error = None
        # Writers take turns (a rule's position is the count before it);
        # checks read without it.
        self._write_lock = threading.Lock()
        self.set_text(text)

    def set_text(self, text: str) -> None:
        with self._write_lock:
            self._load(text)
            self._lines = len(text.splitlines())

    def append(self, line: str) -> None:
        """Add ``line``'s rule after every other, parsing only that line.
        A malformed line — or text of more than one line — raises
        :class:`ConfigurationError` and changes nothing."""
        with self._write_lock:
            lineno = self._lines + 1
            if len(line.splitlines()) > 1:
                raise ConfigurationError(f"ACL line {lineno}: more than one line")
            self._compiled.extend(parse_rules(line, first_lineno=lineno))
            self._lines = lineno

    def reload(self) -> None:  # nothing to re-read
        pass

    def _maybe_reload(self) -> None:
        pass
