"""A small LDAP server model: DN-keyed entries answering equality searches.

This stands in for the center's OpenLDAP service.  It stores multi-valued
attributes under distinguished names, answers subtree searches for a
conjunction of literal equalities — the one question its clients ask, which
entry has this ``uid`` — and keeps a ``uidNumber``-style unique id in each
user entry — the id the paper says is "common to both databases" (LDAP and
LinOTP).

Like a production slapd configured with ``index uid eq``, the directory
keeps an equality index on ``uid``: a search whose filter asserts a ``uid``
value tests only the entries filed under that value; every other filter
scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from sys import intern
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.common.errors import NotFoundError

#: The one attribute with an equality index (slapd's ``index uid eq``).
INDEXED_ATTR = "uid"

#: The center's directory suffix, and the subtree every account entry sits in.
SUFFIX = "dc=center,dc=edu"
PEOPLE_BASE = f"ou=people,{SUFFIX}"


def _normalize_dn(dn: str) -> str:
    # (lowering first is exact: it neither makes nor removes whitespace)
    return ",".join(map(str.strip, dn.lower().split(",")))


def _index_key(value: str) -> str:
    """``value`` lowered, as the index files it: the value's own string when
    it is lower case already, so the key is no second copy of it."""
    lowered = value.lower()
    return value if lowered == value else lowered


@dataclass(slots=True)
class LDAPEntry:
    """One directory entry: a DN and multi-valued attributes.

    An entry stored in an :class:`LDAPDirectory` reports changes of its
    indexed attribute to that directory: ``set`` and ``remove_attr`` on an
    entry that ``get`` or ``search`` handed out keep the index exact, and
    the values themselves are immutable tuples, so nothing can change them
    behind it.

    Like slapd's entries, which point at one shared ``AttributeDescription``
    per attribute type, every entry keys its values by one interned name
    per attribute type.  A tuple of ``str`` handed to ``set`` is kept as it
    is, so a writer that hands every entry one tuple for a value they all
    repeat (the object classes, say) stores that value once.
    """

    dn: str
    attributes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    _directory: Optional["LDAPDirectory"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Position in directory order (slapd's entry id); set by ``add``.
    _entry_id: int = field(default=0, init=False, repr=False, compare=False)

    def get(self, attr: str) -> Tuple[str, ...]:
        return self.attributes.get(attr.lower(), ())

    def first(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        values = self.get(attr)
        return values[0] if values else default

    def set(self, attr: str, values: Any) -> None:
        """Replace ``attr``'s values: an iterable of values, or one value (a
        ``str`` is one value, never its characters)."""
        attr = intern(attr.lower())
        if isinstance(values, str) or not hasattr(values, "__iter__"):
            values = (values,)
        if type(values) is not tuple or not all(type(v) is str for v in values):
            values = tuple(map(str, values))
        if attr == INDEXED_ATTR and self._directory is not None:
            self._directory._reindex(self, self.attributes.get(attr, ()), values)
        self.attributes[attr] = values

    def remove_attr(self, attr: str) -> None:
        attr = attr.lower()
        if attr == INDEXED_ATTR and self._directory is not None:
            self._directory._reindex(self, self.attributes.get(attr, ()), ())
        self.attributes.pop(attr, None)


#: A search filter: ``(attr, value)`` pairs, the conjunction
#: ``(&(attr=value)...)`` of literal equalities.  It is plain data, so a
#: caller builds it without importing this module, and there is no filter
#: text: a value is compared, never parsed, so ``*``, ``(``, ``\`` or NUL in
#: it are characters of the literal, not syntax to escape.
Filter = Sequence[Tuple[str, str]]


def _holds(entry: LDAPEntry, pairs: List[Tuple[str, str]]) -> bool:
    attributes = entry.attributes
    for attr, value in pairs:
        if value not in map(str.lower, attributes.get(attr, ())):
            return False
    return True


class LDAPDirectory:
    """The directory service: add/modify/delete/search over a DN tree."""

    #: Where account entries live, for a client that holds the directory but
    #: sits below it in the package order (the LDAP resolver).
    people_base = PEOPLE_BASE

    def __init__(self, base_dn: str = SUFFIX) -> None:
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
        old = set(map(_index_key, old_values))
        new = set(map(_index_key, new_values))
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

    def search(self, base: str, filter: Filter) -> List[LDAPEntry]:
        """The entries of ``base``'s subtree (``base`` itself included) that
        hold every equality of ``filter``, in directory order; no pairs is
        the empty conjunction, which every entry holds.  Names and values
        compare case-blind, as LDAP's caseIgnoreMatch does."""
        self.query_count += 1
        pairs = [(attr.lower(), value.lower()) for attr, value in filter]
        base = _normalize_dn(base)
        suffix = "," + base
        # Only entries filed under the filter's uid value can hold it; the
        # subtree test and the whole filter still run on each of them, so the
        # index narrows the walk and never decides the answer.
        for attr, value in pairs:
            if attr == INDEXED_ATTR:
                filed = self._by_uid.get(value, ())
                candidates = (filed,) if isinstance(filed, LDAPEntry) else filed
                break
        else:
            candidates = self._entries.values()
        return [
            e
            for e in candidates
            if (e.dn == base or e.dn.endswith(suffix)) and _holds(e, pairs)
        ]
