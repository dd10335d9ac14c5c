"""IPv4 origins — ``ALL``, a single address or a CIDR range — and the one
index that finds which of them hold an address: the exemption ACL, the risk
watchlist and the GeoIP table all file their ranges in an
:class:`OriginIndex`, so a probe parses the address once and costs one dict
lookup per distinct prefix mask, however many ranges share it.

An octet is one to three ASCII digits, a CIDR prefix one or two — not what
``str.isdigit()`` accepts: ``²`` makes ``int()`` raise, a full-width ``１``
respells a waived address.  Text that is not an address is inside no range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigurationError

_OCTET = "([0-9]{1,3})"
_IPV4 = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}")
_PREFIX = re.compile("[0-9]{1,2}")


def ipv4_to_int(text: str) -> Optional[int]:
    """The dotted-quad ``text`` as a 32-bit integer; ``None`` if it is not one."""
    match = _IPV4.fullmatch(text)
    if match is None:
        return None
    a, b, c, d = map(int, match.groups())
    if a > 255 or b > 255 or c > 255 or d > 255:
        return None
    return a << 24 | b << 16 | c << 8 | d


@dataclass(frozen=True)
class OriginMatcher:
    """One parsed origin field: ALL, a single IP, or a CIDR range."""

    raw: str
    network: int = 0
    mask: int = 0
    match_all: bool = False

    @classmethod
    def parse(cls, text: str) -> "OriginMatcher":
        text = text.strip()
        if text.upper() == "ALL":
            return cls(raw="ALL", match_all=True)
        base, slash, prefix_text = text.partition("/")
        prefix = 32
        if slash:
            if not _PREFIX.fullmatch(prefix_text) or int(prefix_text) > 32:
                raise ConfigurationError(f"invalid CIDR prefix in {text!r}")
            prefix = int(prefix_text)
        network = ipv4_to_int(base)
        if network is None:
            raise ConfigurationError(f"invalid IPv4 address in {text!r}")
        mask = (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
        return cls(raw=text, network=network & mask, mask=mask)


class OriginIndex:
    """Values filed under origins.  ``buckets`` holds one ``(first value,
    mask, table)`` per distinct mask, in filing order; a table maps a network
    to its values in filing order, and the ``ALL`` bucket — the only one a
    source that is not an address reaches — has mask ``None`` and its values
    as its table.  Hot paths walk ``buckets`` inline (a method call would cost
    a login one more call); a list is published whole, so a reader without a
    lock finds every value whose ``add`` has returned."""

    def __init__(self) -> None:
        self.buckets: List[tuple] = []
        self._by_mask: Dict[Optional[int], tuple] = {}

    def add(self, origin: OriginMatcher, value: Any) -> None:
        """File ``value`` under ``origin``, after every value already there."""
        mask = None if origin.match_all else origin.mask
        bucket = self._by_mask.get(mask)
        if bucket is None:
            table = [value] if mask is None else {origin.network: [value]}
            self.buckets.append(self._by_mask.setdefault(mask, (value, mask, table)))
        elif mask is None:
            bucket[2].append(value)
        else:  # a new list, published whole
            table = bucket[2]
            table[origin.network] = table.get(origin.network, []) + [value]

    def longest(self, ip: str) -> Any:
        """The first value under the most specific range holding ``ip``, or
        ``None``; ``ALL`` ranks as ``/0``, the first bucket of the two winning."""
        address = ipv4_to_int(ip)
        found, found_mask = None, -1
        for _, mask, table in self.buckets:
            if mask is None:
                values, mask = table, 0
            elif address is not None and (network := address & mask) in table:
                values = table[network]
            else:
                continue
            if mask > found_mask:
                found, found_mask = values[0], mask
        return found
