"""IPv4 origin matching: ``ALL``, a single address, or a CIDR range.

One parser for every layer that asks "is this address in that range":
the exemption ACL's origin field, the risk engine's watchlist and the
geolocation database's prefix table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError


def _ipv4_to_int(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ConfigurationError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or not 0 <= int(part) <= 255:
            raise ConfigurationError(f"invalid IPv4 octet in {text!r}")
        value = (value << 8) | int(part)
    return value


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
        if "/" in text:
            base, _, prefix_text = text.partition("/")
            if not prefix_text.isdigit() or not 0 <= int(prefix_text) <= 32:
                raise ConfigurationError(f"invalid CIDR prefix in {text!r}")
            prefix = int(prefix_text)
            mask = 0 if prefix == 0 else (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF
            network = _ipv4_to_int(base) & mask
            return cls(raw=text, network=network, mask=mask)
        return cls(raw=text, network=_ipv4_to_int(text), mask=0xFFFFFFFF)

    def matches(self, ip: str) -> bool:
        if self.match_all:
            return True
        try:
            value = _ipv4_to_int(ip)
        except ConfigurationError:
            return False
        return (value & self.mask) == self.network
