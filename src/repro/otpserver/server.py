"""The OTP validation server — functional equivalent of LinOTP (Section 3.1).

Responsibilities reproduced from the paper:

* keep "track of users and their associated one-time password secret key"
  in the relational store, sealed at rest;
* validate six-digit TOTP codes within the ±300 s drift window, nullifying
  each accepted code (replay protection);
* maintain per-token consecutive-failure counters and "temporarily
  deactivate" a token after 20 consecutive failed attempts, with the
  lockout visible to staff through the audit log;
* run the SMS challenge lifecycle: a null first request triggers a Twilio
  send, repeated requests while a code is outstanding answer "SMS already
  sent" instead of re-sending;
* support the admin operations the built-in web UI offers: view pairings,
  re-synchronize tokens, clear failure counters, enable/disable tokens;
* hold pre-programmed hard-token batches so users can pair by serial
  number, and static codes for training accounts.

The validate path itself is a staged pipeline (:mod:`repro.authflow`):
``OTPServer`` assembles ResolveIdentity → EvaluatePolicy → ReplayGuard →
DispatchByTokenType → ApplyOutcome → Audit against one
:class:`repro.policy.PolicyEngine`, and each attempt runs under a
per-user striped lock so distinct users validate concurrently.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.authflow import AuthPipeline, ConcurrencyConfig, default_stages
from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import IdAllocator
from repro.common.results import TokenType, ValidateResult, ValidateStatus
from repro.crypto.secrets import SecretSealer, generate_secret
from repro.crypto.totp import TOTPValidator
from repro.otpserver.audit import AuditLog
from repro.otpserver.database import Database
from repro.otpserver.sms_gateway import SMSGateway
from repro.otpserver.tokens import HardTokenBatch, TokenRecord
from repro.policy import LockoutPolicy, PolicyEngine
from repro.storage import StorageConfig, build_engine
from repro.telemetry import NOOP_REGISTRY


#: Every code the server checks is this many digits, and a TOTP code
#: changes every ``TOTP_STEP`` seconds (the paper's devices, Section 3.3).
DIGITS = 6
TOTP_STEP = 30


@dataclass(frozen=True)
class OTPServerConfig:
    """The two values the paper's ablations vary, defaulted to the
    deployment's."""

    lockout_threshold: int = 20  # consecutive failures before deactivation
    drift_seconds: int = 300  # device clock drift tolerance

    def __post_init__(self) -> None:
        if self.lockout_threshold < 1:
            raise ValueError("lockout threshold must be at least 1")
        if self.drift_seconds < 0:
            raise ValueError("drift tolerance must be non-negative")


_TOKEN_COLUMNS = (
    "serial",
    "user_id",
    "token_type",
    "sealed_secret",
    "active",
    "failcount",
    "phone_number",
    "static_code_sealed",
    "pairing_confirmed",
    "hotp_counter",  # event-based tokens only
    "federated_principal",  # federated tokens only: the user@homesite mapping
)

_CHALLENGE_COLUMNS = ("user_id", "serial", "sealed_code", "sent_at", "expires_at")

#: What a token type with no seed of its own (static, federated) stores.
_NO_SECRET = b"\x00" * 20


class OTPServer:
    """The back-end validation engine RADIUS proxies queries to."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        config: Optional[OTPServerConfig] = None,
        sms_gateway: Optional[SMSGateway] = None,
        master_key: bytes = b"linotp-master-key-0123456789abcdef",
        rng: Optional[random.Random] = None,
        telemetry=None,
        storage: Optional[object] = None,
        policy: Optional[PolicyEngine] = None,
        concurrency: Optional[ConcurrencyConfig] = None,
    ) -> None:
        self.clock = clock or WallClock()
        self.config = config or OTPServerConfig()
        self._rng = rng or random.Random()
        self.telemetry = telemetry if telemetry is not None else NOOP_REGISTRY
        self._tracer = self.telemetry.tracer()
        validated = self.telemetry.counter(
            "otp_validate_total", "OTP validate calls by status"
        )
        self._m_validate = {
            status: validated.labels(status=status.value) for status in ValidateStatus
        }
        self._m_lockouts = self.telemetry.counter(
            "otp_lockouts_total", "tokens deactivated by the 20-strike rule"
        )
        self._m_replay = self.telemetry.counter(
            "otp_replay_floor_hits_total",
            "correct-but-consumed codes rejected by the replay floor",
        )
        self._m_sms_challenges = self.telemetry.counter(
            "otp_sms_challenges_total", "SMS challenge starts by result"
        )
        self.sms = sms_gateway or SMSGateway(
            self.clock, rng=self._rng, telemetry=self.telemetry
        )
        self._sealer = SecretSealer(master_key, rng=self._rng)
        # ``storage`` is either a ready StorageEngine (used as-is) or a
        # StorageConfig/None describing the stack to build against this
        # server's telemetry registry (so op metrics land in the shared one).
        if storage is None or isinstance(storage, StorageConfig):
            storage = build_engine(storage, telemetry=self.telemetry, clock=self.clock)
        self.db = Database("linotp", engine=storage)
        # token_type is indexed so the Table-1 style per-type breakdown is
        # an index length lookup, not a full-table scan.
        self.tokens = self.db.create_table(
            "tokens",
            _TOKEN_COLUMNS,
            primary_key="serial",
            indexed=("user_id", "token_type"),
        )
        self.challenges = self.db.create_table(
            "challenges", _CHALLENGE_COLUMNS, primary_key="user_id"
        )
        self.audit = AuditLog(self.clock)
        self._validator = TOTPValidator(
            clock=self.clock,
            digits=DIGITS,
            step=TOTP_STEP,
            drift=self.config.drift_seconds,
        )
        self._ids = IdAllocator()
        # Hard-token inventory: serial -> secret for fobs imported from a
        # manufacturer batch but not yet paired to a user.
        self._hard_inventory: Dict[str, bytes] = {}
        self.validate_requests = 0
        self._stats_lock = threading.Lock()
        #: Every honeytoken use, in arrival order.  Alarms also flow into
        #: the audit log and the risk flag log; this list is the record the
        #: adversarial invariants check against, and the only count.
        self.honeytoken_alarms: List[Dict[str, object]] = []
        #: The identity resolver chain (``attach_resolvers``).  ``None`` is
        #: the bare server: the submitted id *is* the storage key — the
        #: reference a chained deployment is compared against.
        self.resolvers = None
        #: The :class:`AttestationVerifier` federated dispatch consults
        #: (``attach_federation``), or ``None``.
        self.federation = None
        # The policy engine every validate consults.  The default engine
        # (full ladder, no exemptions, no risk engine) reproduces
        # the paper's always-challenge server; the lockout threshold comes
        # from this server's config so the two can never disagree.
        self.policy = policy or PolicyEngine(
            lockout=LockoutPolicy(self.config.lockout_threshold),
            clock=self.clock,
            telemetry=self.telemetry,
        )
        self._pipeline = AuthPipeline(
            default_stages(self, self.policy),
            concurrency=concurrency,
            telemetry=self.telemetry,
            clock=self.clock,
        )
        #: The operator view (:meth:`status`): section name -> zero-argument
        #: callable returning that subsystem's dict.  Whoever wires a
        #: subsystem in adds its section (``attach_resolvers`` here,
        #: ``MFACenter`` for the ingest queue); a section nobody wired is
        #: absent.
        self.status_sections: Dict[str, Callable[[], Dict[str, object]]] = {
            "storage": self.db.engine.describe,
            "policy": self._policy_status,
            "audit": self._audit_status,
        }

    @property
    def pipeline(self) -> AuthPipeline:
        """The assembled validate pipeline (read-only introspection)."""
        return self._pipeline

    # -- enrollment ---------------------------------------------------------

    def _enroll(
        self,
        user_id: str,
        token_type: TokenType,
        serial: str,
        secret: bytes,
        detail: str,
        phone_number: Optional[str] = None,
        code: Optional[str] = None,
        federated_principal: Optional[str] = None,
    ) -> str:
        """The one enrolment path: seal, insert the token row, audit.

        The public ``enroll_*`` methods validate, pick the serial and the
        secret (a token type with no seed of its own stores ``_NO_SECRET``),
        and hand over; ``code`` is the static or step-up code kept sealed
        next to the secret.
        """
        self.tokens.insert(
            {
                "serial": serial,
                "user_id": user_id,
                "token_type": token_type.value,
                "sealed_secret": self._sealer.seal(secret),
                "active": True,
                "failcount": 0,
                "phone_number": phone_number,
                "static_code_sealed": (
                    self._sealer.seal(code.encode()) if code else None
                ),
                "pairing_confirmed": False,
                "hotp_counter": 0,
                "federated_principal": federated_principal,
            }
        )
        self.audit.record("enroll", user_id, serial, detail=detail)
        return serial

    def enroll_hotp(self, user_id: str, secret: Optional[bytes] = None) -> Tuple[str, bytes]:
        """Create an event-based (HOTP, Feitian c100-class) token.

        Unlike the time-based fobs, the device advances a press counter;
        the server keeps its own counter and searches a look-ahead window
        at validation time (RFC 4226 section 7.2).
        """
        self._ensure_unpaired(user_id)
        secret = secret or generate_secret(rng=self._rng)
        serial = self._ids.next("LSHO")
        return self._enroll(user_id, TokenType.HOTP, serial, secret, "hotp"), secret

    def enroll_soft(self, user_id: str) -> Tuple[str, bytes]:
        """Create a soft token; returns (serial, secret) — the secret leaves
        the server exactly once, inside the pairing QR code."""
        self._ensure_unpaired(user_id)
        secret = generate_secret(rng=self._rng)
        serial = self._ids.next("LSSO")
        return self._enroll(user_id, TokenType.SOFT, serial, secret, "soft"), secret

    def enroll_honeytoken(self, user_id: str) -> Tuple[str, bytes]:
        """Plant a decoy credential on an account nobody should use.

        The token is indistinguishable from a soft token at validation
        time — same TOTP algorithm, same serial shape as a pairing, codes
        verify and consume normally — so an attacker who lifts the seed
        from a seeded credential dump learns nothing from the server's
        responses.  What differs is the server side: *any* validate
        against it raises an alarm (``honeytoken_alarms``) that the audit
        stage and the shared risk stage also record (arXiv 2112.08431).
        """
        self._ensure_unpaired(user_id)
        secret = generate_secret(rng=self._rng)
        serial = self._ids.next("LSHY")
        return self._enroll(user_id, TokenType.HONEY, serial, secret, "honey"), secret

    def raise_honeytoken_alarm(
        self, user_id: str, serial: str, accepted: bool, source: Optional[str]
    ) -> None:
        """Record one honeytoken use (called by the dispatch stage)."""
        self.honeytoken_alarms.append(
            {
                "user_id": user_id,
                "serial": serial,
                "accepted": accepted,
                "source": source or "",
                "t": self.clock.now(),
            }
        )
        if self.policy.risk is not None:
            self.policy.risk.raise_alarm(
                user_id, source or "", serial=serial, accepted=accepted
            )

    def enroll_sms(self, user_id: str, phone_number: str) -> str:
        """Create an SMS token bound to a phone number."""
        self._ensure_unpaired(user_id)
        if not phone_number:
            raise ValidationError("SMS enrollment requires a phone number")
        secret = generate_secret(rng=self._rng)
        serial = self._ids.next("LSSM")
        return self._enroll(
            user_id, TokenType.SMS, serial, secret, "sms", phone_number=phone_number
        )

    def import_hard_batch(self, batch: HardTokenBatch) -> int:
        """Load a manufacturer batch's (serial, secret) pairs into inventory."""
        for serial in batch.serials():
            if serial in self._hard_inventory or self.tokens.exists(serial):
                raise ValidationError(f"duplicate hard-token serial {serial}")
            self._hard_inventory[serial] = batch.secret_for(serial)
        self.audit.record("import_batch", "-", detail=f"{len(batch)} fobs")
        return len(batch)

    def hard_inventory_serials(self) -> List[str]:
        return list(self._hard_inventory)

    def assign_hard(self, user_id: str, serial: str) -> str:
        """Pair an inventory fob to a user by its serial number."""
        self._ensure_unpaired(user_id)
        secret = self._hard_inventory.pop(serial, None)
        if secret is None:
            raise NotFoundError(f"serial {serial!r} is not in hard-token inventory")
        return self._enroll(user_id, TokenType.HARD, serial, secret, "hard")

    def enroll_static(self, user_id: str, code: str) -> str:
        """Assign a training account its static six-digit code."""
        if len(code) != DIGITS or not code.isdigit():
            raise ValidationError(f"static code must be {DIGITS} digits")
        serial = self._ids.next("LSST")
        # Replacing the previous session code and inserting the new one is
        # one atomic step: a failure mid-way must not leave the trainee
        # codeless.
        with self.db.transaction():
            for row in self._user_tokens(user_id):
                self.tokens.delete(row["serial"])
            self._enroll(
                user_id, TokenType.STATIC, serial, _NO_SECRET, "static", code=code
            )
        return serial

    def enroll_federated(
        self, user_id: str, principal: str, step_up_code: Optional[str] = None
    ) -> str:
        """Pair an account with a federated home-site identity.

        ``principal`` is the ``user@homesite`` name a trusted issuer
        attests; the submitted "code" at login time is the bearer
        assertion itself (see :mod:`repro.resolvers.federation`).  An
        optional ``step_up_code`` is sealed alongside the pairing and
        demanded — appended to the assertion — whenever the risk stage
        answers STEP_UP, so risky federated logins still cost a local
        second factor.
        """
        self._ensure_unpaired(user_id)
        if "@" not in principal:
            raise ValidationError(
                f"federated principal needs a home-site realm: {principal!r}"
            )
        if step_up_code is not None and (
            len(step_up_code) != DIGITS or not step_up_code.isdigit()
        ):
            raise ValidationError(f"step-up code must be {DIGITS} digits")
        return self._enroll(
            user_id,
            TokenType.FEDERATED,
            self._ids.next("LSFD"),
            _NO_SECRET,
            f"federated {principal}",
            code=step_up_code,
            federated_principal=principal,
        )

    def _ensure_unpaired(self, user_id: str) -> None:
        # Device pairings are "mutually exclusive" (Section 1): one active
        # pairing per user.
        if self._user_tokens(user_id):
            raise ValidationError(f"user {user_id} already has a token pairing")

    # -- queries ------------------------------------------------------------

    def _user_tokens(self, user_id: str) -> List[dict]:
        return self.tokens.select(where={"user_id": user_id})

    def user_tokens(self, user_id: str) -> List[TokenRecord]:
        """The admin view of a user's pairings."""
        return [
            TokenRecord(
                serial=row["serial"],
                user_id=row["user_id"],
                token_type=TokenType(row["token_type"]),
                sealed_secret=row["sealed_secret"],
                active=row["active"],
                failcount=row["failcount"],
                phone_number=row["phone_number"],
                pairing_confirmed=row["pairing_confirmed"],
                federated_principal=row.get("federated_principal"),
            )
            for row in self._user_tokens(user_id)
        ]

    def has_pairing(self, user_id: str) -> bool:
        return bool(self._user_tokens(user_id))

    def pairing_type(self, user_id: str) -> Optional[TokenType]:
        rows = self._user_tokens(user_id)
        return TokenType(rows[0]["token_type"]) if rows else None

    def is_locked(self, user_id: str) -> bool:
        rows = self._user_tokens(user_id)
        return bool(rows) and all(not r["active"] for r in rows)

    # -- validation ---------------------------------------------------------

    def validate(
        self, user_id: str, code: Optional[str], source: Optional[str] = None
    ) -> ValidateResult:
        """The ``/validate/check`` equivalent RADIUS servers call.

        ``user_id`` is the login name once a resolver chain is attached
        (every ``MFACenter``), the storage uid itself on a bare server.
        ``code=None`` (the "null request") triggers the SMS challenge for
        SMS-paired users; any other value is checked as a token code.
        ``source`` (the requesting address, when known) is the origin of
        ``EvaluatePolicy``'s ``AuthRequest`` (ACL and risk), the address a
        honeytoken alarm names, and what ``ApplyOutcome`` passes to ``record_success``.
        """
        if not self.telemetry.enabled:
            return self._pipeline.run(user_id, code, source)
        with self._tracer.span("otp.validate", user=user_id) as span:
            result = self._pipeline.run(user_id, code, source)
            span.annotate("status", result.status._value_)
            if result.reason:
                span.annotate("reason", result.reason)
            self._m_validate[result.status].inc()
            return result

    # -- operator view (the built-in web UI's status pages, Section 3.1) ------

    def status(self, section: Optional[str] = None) -> Dict[str, object]:
        """Every wired section of the back end as one dict — ``GET
        /admin/status`` and ``python -m repro status`` print exactly this —
        or one ``section`` alone; asking for a section that is not wired
        raises :class:`NotFoundError`."""
        if section is None:
            return {name: report() for name, report in self.status_sections.items()}
        report = self.status_sections.get(section)
        if report is None:
            raise NotFoundError(f"no status section {section!r}")
        return report()

    def _audit_status(self) -> Dict[str, object]:
        snap = self.audit.snapshot()
        snap["honeytoken_alarms"] = len(self.honeytoken_alarms)
        return snap

    def _policy_status(self) -> Dict[str, object]:
        snap = self.policy.snapshot()
        snap["concurrency"] = {"lock_stripes": self._pipeline.locks.stripes}
        return snap

    # -- identity resolvers & federation --------------------------------------

    def attach_resolvers(self, chain) -> None:
        """Put identity resolution onto a :class:`ResolverChain`.

        Once attached, ``validate`` takes *login names*: the pipeline's
        ``ResolveIdentity`` stage maps them (including ``user@realm``
        forms) through the chain to the uid the token rows are stored
        under, and ``status("resolvers")`` reports the chain's health and
        cache state.
        """
        self.resolvers = chain
        self.status_sections["resolvers"] = chain.snapshot

    def attach_federation(self, verifier) -> None:
        """Register the attestation verifier federated dispatch consults."""
        self.federation = verifier

    # -- admin operations (the built-in web UI, Section 3.1) -----------------

    def clear_failcount(self, user_id: str) -> int:
        """Clear failure counters and re-activate the user's tokens."""
        cleared = 0
        for row in self._user_tokens(user_id):
            self.tokens.update(row["serial"], {"failcount": 0, "active": True})
            cleared += 1
        self.audit.record("clear_failcount", user_id)
        return cleared

    def resync(self, user_id: str, code1: str, code2: str) -> bool:
        """Re-synchronize a drifted soft/hard token from two codes."""
        for row in self._user_tokens(user_id):
            if TokenType(row["token_type"]) in (TokenType.SOFT, TokenType.HARD):
                secret = self._sealer.unseal(row["sealed_secret"])
                outcome = self._validator.resync(row["serial"], secret, code1, code2)
                self.audit.record(
                    "resync", user_id, row["serial"], success=outcome.ok
                )
                return outcome.ok
        return False

    def disable_token(self, serial: str) -> None:
        self.tokens.update(serial, {"active": False})
        row = self.tokens.get(serial)
        self.audit.record("disable", row["user_id"], serial)

    def enable_token(self, serial: str) -> None:
        self.tokens.update(serial, {"active": True, "failcount": 0})
        row = self.tokens.get(serial)
        self.audit.record("enable", row["user_id"], serial)

    def unpair(self, user_id: str) -> int:
        """Remove the user's pairing (portal unpair or staff ticket)."""
        removed = 0
        # Tokens and any outstanding SMS challenge disappear together: the
        # undo log guarantees no half-unpaired state is ever visible.
        with self.db.transaction():
            for row in self._user_tokens(user_id):
                self.tokens.delete(row["serial"])
                self._validator.forget(row["serial"])
                removed += 1
            if self.challenges.exists(user_id):
                self.challenges.delete(user_id)
        self.audit.record("unpair", user_id, detail=f"{removed} token(s)")
        return removed

    def token_count_by_type(self) -> Dict[str, int]:
        """The Table-1 style breakdown of current pairings.

        Served from the ``token_type`` secondary index — one O(1) count per
        device type instead of a scan over every enrolled token.
        """
        counts: Dict[str, int] = {}
        for token_type in TokenType:
            n = self.tokens.count(where={"token_type": token_type.value})
            if n:
                counts[token_type.value] = n
        return counts
