"""Token device types and records (Section 3.3).

Four kinds of token exist in the deployment:

* **soft** — the in-house smartphone app (Google-Authenticator derivative);
  the secret is generated at pairing time and delivered by QR code.
* **sms** — out-of-band codes sent through Twilio to a US phone number.
* **hard** — Feitian OTP c200 fobs that arrive *pre-programmed*: the secret
  for each serial number is supplied with the batch purchase and loaded
  into the back end before the device ships.
* **static** — training-account tokens: a fixed six-digit code assigned
  before each workshop.

:class:`HardTokenBatch` models the Feitian supply chain — a batch purchase
yields (serial, secret) pairs, a sample/proof/bulk timeline, and a per-unit
cost that feeds the cost model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.results import TokenType
from repro.crypto.secrets import generate_secret


@dataclass
class TokenRecord:
    """One enrolled token as the OTP server's database sees it.

    ``sealed_secret`` is the at-rest (sealed) form; only the validation path
    unseals it.  ``failcount`` is the consecutive-failure counter behind the
    20-strike lockout.
    """

    serial: str
    user_id: str
    token_type: TokenType
    sealed_secret: bytes
    active: bool = True
    failcount: int = 0
    phone_number: Optional[str] = None  # SMS tokens only
    pairing_confirmed: bool = False
    federated_principal: Optional[str] = None  # federated tokens only

    def describe(self) -> str:
        state = "active" if self.active else "disabled"
        return f"{self.serial} ({self.token_type.value}, {state}, failcount={self.failcount})"


#: Feitian OTP c200 unit economics from Section 3.3: tokens were resold to
#: users at $25 covering device, shipping/handling and staff processing.
HARD_TOKEN_USER_FEE = 25.00
#: Approximate per-unit bulk purchase cost for c200-class fobs.
HARD_TOKEN_UNIT_COST = 12.50
#: "A bulk shipment arrived 5 weeks after initial purchase."
HARD_TOKEN_LEAD_TIME_DAYS = 35

#: Countries the paper reports shipping fobs to.
HARD_TOKEN_SHIP_COUNTRIES = (
    "China",
    "Germany",
    "United Kingdom",
    "Switzerland",
    "France",
    "Spain",
    "United States",
)


@dataclass
class HardTokenUnit:
    """One physical fob: a serial and its factory-programmed secret."""

    serial: str
    secret: bytes
    shipped_to: Optional[str] = None


class HardTokenBatch:
    """A batch purchase of pre-programmed fobs from the manufacturer.

    The manufacturer keeps the (serial → secret) mapping and hands it over
    with the shipment; the center loads it into the OTP back end so that a
    user pairing by serial number needs no key exchange.
    """

    vendor = "Feitian"
    model = "OTP c200"
    serial_prefix = "FT"

    def __init__(self, size: int, rng: Optional[random.Random] = None) -> None:
        if size <= 0:
            raise ValidationError(f"batch size must be positive, got {size}")
        rng = rng or random.Random()
        self._units: Dict[str, HardTokenUnit] = {}
        for i in range(size):
            serial = f"{self.serial_prefix}{rng.randrange(10**8):08d}-{i:04d}"
            self._units[serial] = HardTokenUnit(serial, generate_secret(rng=rng))

    def __len__(self) -> int:
        return len(self._units)

    def serials(self) -> List[str]:
        return list(self._units)

    def secret_for(self, serial: str) -> bytes:
        unit = self._units.get(serial)
        if unit is None:
            raise NotFoundError(f"no fob with serial {serial!r} in this batch")
        return unit.secret

    def ship(self, serial: str, country: str) -> HardTokenUnit:
        """Mark a fob as shipped (the web-store fulfillment step)."""
        unit = self._units.get(serial)
        if unit is None:
            raise NotFoundError(f"no fob with serial {serial!r} in this batch")
        if unit.shipped_to is not None:
            raise ValidationError(f"fob {serial} already shipped to {unit.shipped_to}")
        unit.shipped_to = country
        return unit

    def unshipped(self) -> List[str]:
        return [s for s, u in self._units.items() if u.shipped_to is None]

    def purchase_cost(self) -> float:
        return len(self._units) * HARD_TOKEN_UNIT_COST


def random_static_code(rng: Optional[random.Random] = None) -> str:
    """A random six-digit training code ("accounts are assigned a random
    six-digit number" before each session)."""
    rng = rng or random.Random()
    return f"{rng.randrange(10**6):06d}"
