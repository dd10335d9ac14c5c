"""A small LDAP server model: DN-keyed entries plus RFC 4515 search filters.

This stands in for the center's OpenLDAP service.  It stores multi-valued
attributes under distinguished names, answers scoped searches with a filter
language supporting equality, presence, substring, AND/OR/NOT, and keeps a
``uidNumber``-style unique id in each user entry — the id the paper says is
"common to both databases" (LDAP and LinOTP).

Like a production slapd configured with ``index uid eq``, the directory
keeps an equality index on ``uid``: a search whose filter cannot match
without a ``(uid=value)`` assertion holding tests only the entries filed
under that value; every other filter scans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from sys import intern
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import NotFoundError

#: The one attribute with an equality index (slapd's ``index uid eq``).
INDEXED_ATTR = "uid"


def _normalize_dn(dn: str) -> str:
    # (lowering first is exact: it neither makes nor removes whitespace)
    return ",".join(map(str.strip, dn.lower().split(",")))


def _dn_parent(dn: str) -> str:
    return dn.partition(",")[2]


@dataclass(slots=True)
class LDAPEntry:
    """One directory entry: a DN and multi-valued attributes.

    An entry stored in an :class:`LDAPDirectory` reports changes of its
    indexed attribute to that directory, so mutating what ``get`` or
    ``search`` handed out keeps the index exact.

    Like slapd's entries, which point at one shared ``AttributeDescription``
    per attribute type, every entry keys its values by one interned name
    per attribute type, and holds each value list at its exact size.
    """

    dn: str
    attributes: Dict[str, List[str]] = field(default_factory=dict)
    _directory: Optional["LDAPDirectory"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Position in directory order (slapd's entry id); set by ``add``.
    _entry_id: int = field(default=0, init=False, repr=False, compare=False)

    def get(self, attr: str) -> List[str]:
        return self.attributes.get(attr.lower(), [])

    def first(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        values = self.get(attr)
        return values[0] if values else default

    def set(self, attr: str, values: Any) -> None:
        """Replace ``attr``'s values: an iterable of values, or one value (a
        ``str`` is one value, never its characters)."""
        attr = intern(attr.lower())
        if isinstance(values, str) or not hasattr(values, "__iter__"):
            values = (values,)
        values = list(map(str, values))[:]  # a slice is allocated exactly
        if attr == INDEXED_ATTR and self._directory is not None:
            self._directory._reindex(self, self.attributes.get(attr, ()), values)
        self.attributes[attr] = values

    def add_value(self, attr: str, value: str) -> None:
        attr = intern(attr.lower())
        value = str(value)
        values = self.attributes.setdefault(attr, [])
        if attr == INDEXED_ATTR and self._directory is not None:
            self._directory._reindex(self, values, [*values, value])
        values.append(value)

    def remove_attr(self, attr: str) -> None:
        attr = attr.lower()
        if attr == INDEXED_ATTR and self._directory is not None:
            self._directory._reindex(self, self.attributes.get(attr, ()), ())
        self.attributes.pop(attr, None)


# ---------------------------------------------------------------------------
# Search filters (RFC 4515 subset): (attr=value), (attr=*), substring
# patterns with '*', and the boolean combinators &, |, !.  In a value a bare
# '*' is the wildcard; '\xx' is the octet 0xXX, so '\2a' is a literal star.
# ---------------------------------------------------------------------------

FilterFn = Callable[[LDAPEntry], bool]
#: ``(attr, lowered value)`` equalities without which a filter cannot match.
Required = Tuple[Tuple[str, str], ...]
#: A filter ready to run: its predicate and what it requires.
CompiledFilter = Tuple[FilterFn, Required]

_HEX_PAIR = re.compile("[0-9a-fA-F]{2}")


def _unescape(raw: str) -> str:
    """Decode the ``\\xx`` escapes of one assertion value (UTF-8 octets)."""
    if "\\" not in raw:
        return raw
    head, *rest = raw.split("\\")
    octets = bytearray(head.encode("utf-8", "surrogatepass"))
    for part in rest:
        if not _HEX_PAIR.match(part):
            raise ValueError(f"malformed escape '\\{part[:2]}' in filter value {raw!r}")
        octets.append(int(part[:2], 16))
        octets += part[2:].encode("utf-8", "surrogatepass")
    return octets.decode("utf-8", "surrogatepass")


def _match_substring(parts: List[str], value: str) -> bool:
    value = value.lower()
    if not value.startswith(parts[0]):
        return False
    if not value.endswith(parts[-1]):
        return False
    pos = len(parts[0])
    for middle in parts[1:-1]:
        found = value.find(middle, pos)
        if found < 0:
            return False
        pos = found + len(middle)
    return pos <= len(value) - len(parts[-1])


def equality_filter(attr: str, value: str) -> CompiledFilter:
    """``(attr=value)`` for a *literal* ``value``: the parser's equality
    leaf, and what a caller holding untrusted text (a login name) hands
    :meth:`LDAPDirectory.search` directly — no filter text exists, so ``*``,
    ``(`` or NUL in it are characters to compare, not syntax to escape."""
    attr = attr.lower()
    value = value.lower()
    return (
        lambda e, a=attr, v=value: v in map(str.lower, e.get(a)),
        ((attr, value),),
    )


def _parse_expr(text: str, pos: int) -> Tuple[FilterFn, Required, int]:
    if pos >= len(text) or text[pos] != "(":
        raise ValueError(f"expected '(' at position {pos} in filter {text!r}")
    pos += 1
    if pos >= len(text):
        raise ValueError("truncated filter")
    op = text[pos]
    if op in "&|":
        pos += 1
        subs: List[FilterFn] = []
        required: Required = ()
        while pos < len(text) and text[pos] == "(":
            sub, sub_required, pos = _parse_expr(text, pos)
            subs.append(sub)
            required += sub_required
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"unbalanced filter near position {pos}")
        pos += 1
        if op == "&":
            # A conjunction needs everything each of its members needs.
            return (lambda e, subs=subs: all(f(e) for f in subs)), required, pos
        return (lambda e, subs=subs: any(f(e) for f in subs)), (), pos
    if op == "!":
        pos += 1
        sub, _, pos = _parse_expr(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise ValueError(f"unbalanced '!' near position {pos}")
        return (lambda e, sub=sub: not sub(e)), (), pos + 1
    end = text.find(")", pos)
    if end < 0:
        raise ValueError("unterminated comparison in filter")
    comparison = text[pos:end]
    if "=" not in comparison:
        raise ValueError(f"comparison missing '=': {comparison!r}")
    attr, _, value = comparison.partition("=")
    attr = attr.strip().lower()
    if value == "*":
        return (lambda e, a=attr: bool(e.get(a))), (), end + 1
    if "*" in value:
        parts = [_unescape(part).lower() for part in value.split("*")]
        return (
            lambda e, a=attr, p=parts: any(_match_substring(p, x) for x in e.get(a)),
            (),
            end + 1,
        )
    return (*equality_filter(attr, _unescape(value)), end + 1)


def _compile_filter(text: str) -> CompiledFilter:
    text = text.strip()
    if not text.startswith("("):
        text = f"({text})"
    fn, required, pos = _parse_expr(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing garbage after position {pos} in {text!r}")
    return fn, required


def parse_filter(text: str) -> FilterFn:
    """Compile an LDAP filter string to a predicate over entries."""
    return _compile_filter(text)[0]


class LDAPDirectory:
    """The directory service: add/modify/delete/search over a DN tree."""

    def __init__(self, base_dn: str = "dc=center,dc=edu") -> None:
        self.base_dn = _normalize_dn(base_dn)
        self._entries: Dict[str, LDAPEntry] = {}
        # The equality index: lowered ``uid`` value -> the entry holding it,
        # or, for a value several entries share, those entries in directory
        # order.  Kept exact by every mutation; never consulted stale.
        self._by_uid: Dict[str, Union[LDAPEntry, List[LDAPEntry]]] = {}
        self._next_entry_id = 0
        self.query_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- index upkeep --------------------------------------------------------

    def _reindex(
        self, entry: LDAPEntry, old_values: Iterable[str], new_values: Iterable[str]
    ) -> None:
        """Refile ``entry`` as its indexed attribute goes from old to new."""
        old = set(map(str.lower, old_values))
        new = set(map(str.lower, new_values))
        for key in old - new:
            filed = self._by_uid[key]
            if filed is entry:
                del self._by_uid[key]
            else:
                rest = [e for e in filed if e is not entry]
                self._by_uid[key] = rest if len(rest) > 1 else rest[0]
        for key in new - old:
            filed = self._by_uid.get(key)
            if filed is None:
                self._by_uid[key] = entry
            else:
                shared = [filed] if isinstance(filed, LDAPEntry) else filed
                self._by_uid[key] = sorted([*shared, entry], key=attrgetter("_entry_id"))

    # -- entries -------------------------------------------------------------

    def add(self, dn: str, attributes: Dict[str, Any]) -> LDAPEntry:
        """Add an entry; each attribute's values go through ``LDAPEntry.set``."""
        norm = _normalize_dn(dn)
        if norm in self._entries:
            raise ValueError(f"entry already exists: {dn}")
        entry = LDAPEntry(dn=norm)
        for attr, values in attributes.items():
            entry.set(attr, values)
        # Entry ids only grow, so id order is the order ``_entries`` iterates.
        self._next_entry_id += 1
        entry._entry_id = self._next_entry_id
        entry._directory = self
        self._entries[norm] = entry
        self._reindex(entry, (), entry.attributes.get(INDEXED_ATTR, ()))
        return entry

    def get(self, dn: str) -> LDAPEntry:
        norm = _normalize_dn(dn)
        entry = self._entries.get(norm)
        if entry is None:
            raise NotFoundError(f"no such entry: {dn}")
        return entry

    def exists(self, dn: str) -> bool:
        return _normalize_dn(dn) in self._entries

    def modify(self, dn: str, changes: Dict[str, Any]) -> LDAPEntry:
        """Replace-style modify (values as ``LDAPEntry.set`` takes them); a
        value of ``None`` deletes the attribute."""
        entry = self.get(dn)
        for attr, values in changes.items():
            if values is None:
                entry.remove_attr(attr)
            else:
                entry.set(attr, values)
        return entry

    def delete(self, dn: str) -> None:
        norm = _normalize_dn(dn)
        entry = self._entries.get(norm)
        if entry is None:
            raise NotFoundError(f"no such entry: {dn}")
        del self._entries[norm]
        self._reindex(entry, entry.attributes.get(INDEXED_ATTR, ()), ())
        entry._directory = None  # a detached entry no longer reports changes

    def search(
        self,
        base: str,
        filter: Union[str, CompiledFilter] = "(objectclass=*)",
        scope: str = "sub",
    ) -> List[LDAPEntry]:
        """Search under ``base`` with an RFC 4515 filter — its text, or one
        already compiled (:func:`equality_filter`).

        ``scope`` is ``base`` (the entry itself), ``one`` (direct children)
        or ``sub`` (the whole subtree).  Results come in directory order.
        """
        self.query_count += 1
        if scope not in ("base", "one", "sub"):
            raise ValueError(f"invalid scope {scope!r}")
        base_norm = _normalize_dn(base)
        predicate, required = (
            _compile_filter(filter) if isinstance(filter, str) else filter
        )
        # Only entries filed under a required uid value can match; the scope
        # test and the whole predicate still run on each of them, so the
        # index narrows the walk and never decides the answer.
        candidates: Iterable[LDAPEntry] = self._entries.values()
        for attr, value in required:
            if attr == INDEXED_ATTR:
                filed = self._by_uid.get(value, ())
                candidates = (filed,) if isinstance(filed, LDAPEntry) else filed
                break
        if scope == "base":
            return [e for e in candidates if e.dn == base_norm and predicate(e)]
        if scope == "one":
            return [
                e for e in candidates if _dn_parent(e.dn) == base_norm and predicate(e)
            ]
        suffix = "," + base_norm
        return [
            e
            for e in candidates
            if (e.dn == base_norm or e.dn.endswith(suffix)) and predicate(e)
        ]
