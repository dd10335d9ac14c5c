"""Outbound email, simulated as per-address inboxes.

Used for the out-of-band unpairing flow: "The user is sent an email to
their associated account email address that contains a signed URL"
(Section 3.5) — and for the rollout's mass announcements (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import Clock, WallClock


@dataclass(frozen=True)
class Email:
    to_address: str
    subject: str
    body: str
    sent_at: float


class Mailer:
    """Collects sent mail; tests and simulated users read their inboxes."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock or WallClock()
        self._inboxes: Dict[str, List[Email]] = {}
        self.sent_count = 0

    def send(self, to_address: str, subject: str, body: str) -> Email:
        email = Email(to_address, subject, body, self._clock.now())
        self._inboxes.setdefault(to_address, []).append(email)
        self.sent_count += 1
        return email

    def broadcast(self, addresses: List[str], subject: str, body: str) -> int:
        """Mass announcement ("communications to the public were sent out
        via portal user news and mass email")."""
        for address in addresses:
            self.send(address, subject, body)
        return len(addresses)

    def inbox(self, address: str) -> List[Email]:
        return list(self._inboxes.get(address, []))

    def latest(self, address: str) -> Optional[Email]:
        inbox = self._inboxes.get(address)
        return inbox[-1] if inbox else None
