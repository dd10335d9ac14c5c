"""RADIUS attribute and packet-code registries (RFC 2865 section 5).

Only the attributes the MFA path exercises are registered; a new one is one
line, the way a FreeRADIUS dictionary file grows.
"""

from __future__ import annotations

from enum import IntEnum


class PacketCode(IntEnum):
    """RADIUS packet type codes."""

    ACCESS_REQUEST = 1
    ACCESS_ACCEPT = 2
    ACCESS_REJECT = 3
    ACCESS_CHALLENGE = 11


class Attr(IntEnum):
    """Attribute type codes used by the MFA infrastructure."""

    USER_NAME = 1
    USER_PASSWORD = 2
    NAS_IP_ADDRESS = 4
    SERVICE_TYPE = 6
    REPLY_MESSAGE = 18
    STATE = 24
    CALLED_STATION_ID = 30
    CALLING_STATION_ID = 31
    NAS_IDENTIFIER = 32
    PROXY_STATE = 33

