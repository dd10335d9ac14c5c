"""The OTP back end — our open-source LinOTP-equivalent (Section 3.1).

Subsystems:

* :mod:`repro.otpserver.database` — the relational façade standing in for
  the encrypted MariaDB repository: tables, unique constraints and indices
  over a pluggable :mod:`repro.storage` engine (in-memory undo-log
  transactions by default; sharded/cached via ``StorageConfig``).
* :mod:`repro.otpserver.tokens` — token records and the four device types
  (soft, SMS, hard, static/training), plus Feitian-style pre-programmed
  hard-token batch manufacturing.
* :mod:`repro.otpserver.sms_gateway` — the Twilio simulation: per-message
  pricing, carrier delivery delays, the delayed-SMS failure mode.
* :mod:`repro.otpserver.server` — the validation engine: TOTP checking with
  drift window, per-token failure counters with the 20-strike lockout,
  SMS challenge lifecycle, audit logging, admin operations.
* :mod:`repro.otpserver.admin_api` — the REST admin interface the portal
  authenticates to with HTTP Digest.
"""

from repro.common.results import (
    Ticket,
    TokenBackend,
    TokenType,
    ValidateResult,
    ValidateStatus,
)
from repro.otpserver.database import Database, Table
from repro.otpserver.server import OTPServer, OTPServerConfig
from repro.otpserver.sms_gateway import SMSGateway
from repro.otpserver.tokens import HardTokenBatch, TokenRecord

__all__ = [
    "Database",
    "Table",
    "OTPServer",
    "OTPServerConfig",
    "Ticket",
    "TokenBackend",
    "ValidateResult",
    "ValidateStatus",
    "SMSGateway",
    "TokenRecord",
    "TokenType",
    "HardTokenBatch",
]
