"""Shared utilities used by every subsystem.

This package holds the small cross-cutting pieces the rest of the
infrastructure builds on: a controllable clock (so that TOTP windows,
exemption expiry dates and the rollout simulation all agree on what "now"
means), the exception hierarchy, tagged identifier generation, and the
four contracts several tiers share (imported from their modules):
:mod:`~repro.common.results`, :mod:`~repro.common.resilience`,
:mod:`~repro.common.origin`, :mod:`~repro.common.cache`.
"""

from repro.common.clock import (
    Clock,
    Deadline,
    VirtualClock,
    WallClock,
)
from repro.common.errors import (
    ConfigurationError,
    MFAError,
    NotFoundError,
    ProtocolError,
    ReproError,
    ValidationError,
)
from repro.common.ids import IdAllocator

__all__ = [
    "Clock",
    "Deadline",
    "VirtualClock",
    "WallClock",
    "ReproError",
    "MFAError",
    "ConfigurationError",
    "ValidationError",
    "ProtocolError",
    "NotFoundError",
    "IdAllocator",
]
