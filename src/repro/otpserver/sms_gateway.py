"""The Twilio SMS gateway simulation (Sections 3.3 and 5).

The real deployment pays Twilio "$1 per month plus each US-based text
message costs an additional $0.0075", with international messages costing
more.  Carriers occasionally sit on a message: "in a handful of cases, an
SMS text message will arrive delayed ... until subsequent retries delivered
the token code in an expired state."

The simulation reproduces all of that: flat-rate plus per-message billing,
a configurable delivery-delay distribution with a small probability of a
long carrier stall, and per-number inboxes the simulated phone (or test)
polls.  Deliveries happen lazily as the clock advances — calling
:meth:`inbox` delivers everything whose delivery time has arrived.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.clock import Clock
from repro.common.errors import ValidationError
from repro.telemetry import resolve_registry


#: Twilio's published rates from the paper (dollars).
MONTHLY_FLAT = 1.00
PER_MESSAGE_US = 0.0075
PER_MESSAGE_INTL = 0.05  # "International ... cost more"


@dataclass
class SMSMessage:
    """One message in flight or delivered."""

    to_number: str
    body: str
    sent_at: float
    deliver_at: float
    delivered: bool = False
    cost: float = 0.0
    attempts: int = 1


_US_NUMBER = re.compile(r"^\+?1?\d{10}$")


def is_us_number(number: str) -> bool:
    """Ten-digit US numbers, optionally with a +1 prefix."""
    return bool(_US_NUMBER.match(number.replace("-", "").replace(" ", "")))


@dataclass
class CarrierProfile:
    """Delivery behaviour of the downstream cellular network.

    ``stall_probability`` models the paper's delayed-SMS failure: with this
    probability the first attempt is lost and the retry lands after
    ``stall_delay`` seconds — typically past the code's validity window.
    """

    base_delay: float = 2.0
    delay_jitter: float = 3.0
    stall_probability: float = 0.005
    stall_delay: float = 600.0


class SMSGateway:
    """The provider-side API LinOTP calls to send token codes."""

    def __init__(
        self,
        clock: Clock,
        rng: Optional[random.Random] = None,
        telemetry=None,
    ) -> None:
        self._clock = clock
        #: The carrier every message rides; a rig or test assigns another.
        self.carrier = CarrierProfile()
        self._rng = rng or random.Random()
        self.telemetry = resolve_registry(telemetry, clock=clock)
        self._tracer = self.telemetry.tracer()
        self._m_stalls = self.telemetry.counter(
            "sms_carrier_stalls_total", "messages the carrier sat on before retry"
        ).labels()
        self._m_delay = self.telemetry.histogram(
            "sms_delivery_delay_seconds",
            "carrier delivery latency (send to scheduled delivery)",
            buckets=(1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 600.0, 1200.0),
        ).labels()
        self._in_flight: Dict[str, List[SMSMessage]] = {}
        self._inboxes: Dict[str, List[SMSMessage]] = {}
        self.messages_sent = 0
        self.message_charges = 0.0
        self.months_billed = 0
        #: Chaos hook: a zero-argument callable returning a CarrierProfile
        #: to use *right now* (or None for the configured one).  The chaos
        #: engine installs one to simulate carrier brownouts on a schedule.
        self.carrier_override: Optional[Callable[[], Optional[CarrierProfile]]] = None

    def bill_month(self) -> float:
        """Accrue one month of the flat service fee."""
        self.months_billed += 1
        return MONTHLY_FLAT

    def total_cost(self) -> float:
        return self.months_billed * MONTHLY_FLAT + self.message_charges

    def snapshot(self) -> Dict[str, object]:
        """The ``sms`` section of the status view: the provider's bill."""
        return {
            "messages_sent": self.messages_sent,
            "message_charges": round(self.message_charges, 6),
            "months_billed": self.months_billed,
            "total_cost": round(self.total_cost(), 6),
            "pending": self.pending_count(),
        }

    def send(self, to_number: str, body: str) -> SMSMessage:
        """Queue a message for delivery; returns the in-flight record."""
        if not to_number:
            raise ValidationError("destination number is required")
        if not self.telemetry.enabled:
            return self._queue(to_number, body)[0]
        with self._tracer.span("sms.send") as span:
            message, delay = self._queue(to_number, body)
            if message.attempts > 1:
                self._m_stalls.inc()
            self._m_delay.observe(delay)
            us_destination = message.cost == PER_MESSAGE_US
            span.attributes["destination"] = "us" if us_destination else "intl"
            span.attributes["delay"] = round(delay, 3)
            return message

    def _queue(self, to_number: str, body: str) -> Tuple[SMSMessage, float]:
        """Bill and schedule one message; returns it and its carrier delay."""
        now = self._clock.now()
        carrier = self.carrier
        if self.carrier_override is not None:
            carrier = self.carrier_override() or carrier
        if self._rng.random() < carrier.stall_probability:
            delay = carrier.stall_delay + self._rng.random() * carrier.stall_delay
            attempts = 2  # the carrier retried before it finally landed
        else:
            delay = carrier.base_delay + self._rng.random() * carrier.delay_jitter
            attempts = 1
        cost = PER_MESSAGE_US if is_us_number(to_number) else PER_MESSAGE_INTL
        message = SMSMessage(
            to_number=to_number,
            body=body,
            sent_at=now,
            deliver_at=now + delay,
            cost=cost,
            attempts=attempts,
        )
        self._in_flight.setdefault(to_number, []).append(message)
        self.messages_sent += 1
        self.message_charges += cost
        return message, delay

    def _deliver_due(self, number: str) -> None:
        now = self._clock.now()
        pending = self._in_flight.get(number, [])
        still_pending = []
        for msg in pending:
            if msg.deliver_at <= now:
                msg.delivered = True
                self._inboxes.setdefault(number, []).append(msg)
            else:
                still_pending.append(msg)
        self._in_flight[number] = still_pending

    def inbox(self, number: str) -> List[SMSMessage]:
        """The phone's view: everything delivered by now, oldest first."""
        self._deliver_due(number)
        return list(self._inboxes.get(number, []))

    def latest(self, number: str) -> Optional[SMSMessage]:
        """The newest delivered message, or None."""
        messages = self.inbox(number)
        return messages[-1] if messages else None

    def pending_count(self, number: Optional[str] = None) -> int:
        if number is not None:
            self._deliver_due(number)
            return len(self._in_flight.get(number, []))
        return sum(len(v) for v in self._in_flight.values())
