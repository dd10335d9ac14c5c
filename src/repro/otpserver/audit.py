"""The OTP server's audit log.

"Upon validation, an audit log entry is created within the LinOTP database"
(Section 3.2).  Admins "can ... access audit logs ... and clear failure
counters" (Section 3.1).  The log is an append-only table with query
helpers for the staff-facing views the paper mentions (per-user history,
lockout events).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.clock import Clock
from repro.common.ids import IdAllocator


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One audit row: who, what, when, and the outcome."""

    entry_id: str
    timestamp: float
    action: str
    user_id: str
    serial: str
    success: bool
    detail: str = ""


class AuditLog:
    """Append-only audit trail with the staff query surface."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._entries: List[AuditEntry] = []
        self._ids = IdAllocator()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict:
        """The ``audit`` section of ``OTPServer.status()``."""
        latest = self._entries[-1].timestamp if self._entries else None
        return {"records": len(self._entries), "latest_timestamp": latest}

    def record(
        self,
        action: str,
        user_id: str,
        serial: str = "",
        success: bool = True,
        detail: str = "",
        at: Optional[float] = None,
    ) -> AuditEntry:
        """Append one row stamped ``at`` (``None``: this log's clock now)."""
        entry = AuditEntry(
            entry_id=self._ids.next("audit"),
            timestamp=self._clock.now() if at is None else at,
            action=action,
            user_id=user_id,
            serial=serial,
            success=success,
            detail=detail,
        )
        self._entries.append(entry)
        return entry

    def entries(
        self,
        user_id: Optional[str] = None,
        action: Optional[str] = None,
        since: Optional[float] = None,
    ) -> List[AuditEntry]:
        """Filtered view, oldest first."""
        out = []
        for e in self._entries:
            if user_id is not None and e.user_id != user_id:
                continue
            if action is not None and e.action != action:
                continue
            if since is not None and e.timestamp < since:
                continue
            out.append(e)
        return out

    def lockout_events(self) -> List[AuditEntry]:
        """The internal-website view staff use to troubleshoot lockouts."""
        return [e for e in self._entries if e.action == "lockout"]

    def success_count(self, action: str = "validate") -> int:
        return sum(1 for e in self._entries if e.action == action and e.success)

    def failure_count(self, action: str = "validate") -> int:
        return sum(1 for e in self._entries if e.action == action and not e.success)
