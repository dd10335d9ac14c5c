"""IPv4 origin matching: ``ALL``, a single address, or a CIDR range.

One parser for every layer that asks "is this address in that range":
the exemption ACL's origin field, the risk engine's watchlist and the
geolocation database's prefix table.

An octet is one to three ASCII digits, a CIDR prefix one or two — not what
``str.isdigit()`` accepts: ``²`` makes ``int()`` raise, a full-width ``１``
respells a waived address.  Text that is not an address matches nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

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
    """Matches an origin field: ALL, a single IP, or a CIDR range."""

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

    def matches(self, ip: str) -> bool:
        if self.match_all:
            return True
        address = ipv4_to_int(ip)
        return address is not None and (address & self.mask) == self.network
