"""Validation result types and the back-end protocol seam.

The contract between anything that checks a second factor and anything
that asks: the RADIUS servers, the ingestion queue and the authflow
stages all build or consume these values, so they sit below all of
them.  ``repro.otpserver`` re-exports them as its public surface.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Protocol, runtime_checkable


class ValidateStatus(str, Enum):
    OK = "ok"
    REJECT = "reject"
    CHALLENGE_SENT = "challenge_sent"  # SMS dispatched, awaiting code
    CHALLENGE_PENDING = "challenge_pending"  # "SMS already sent" message
    LOCKED = "locked"
    NO_TOKEN = "no_token"


class TokenType(str, Enum):
    """The device kinds a pairing can have (Section 3.3; devices and
    batches are modelled in :mod:`repro.otpserver.tokens`)."""

    SOFT = "soft"
    SMS = "sms"
    HARD = "hard"
    STATIC = "static"
    HOTP = "hotp"  # event-based fob (c100-class); not offered publicly
    #: Decoy credential (arXiv 2112.08431): enrolled on accounts that should
    #: never log in, validated exactly like a soft token so an attacker who
    #: stole the seed cannot tell it apart — but any use raises an alarm.
    HONEY = "honey"
    #: Federated bearer token (arXiv 1908.07573): the "code" is an
    #: HMAC-signed attestation from a trusted home site; the record maps
    #: the local account onto its ``user@homesite`` principal.  An optional
    #: sealed step-up PIN satisfies risk-driven STEP_UP locally.
    FEDERATED = "federated"


@dataclass
class ValidateResult:
    """Outcome of one ``/validate/check`` call.

    The canonical accessors shared with
    :class:`~repro.crypto.totp.ValidationOutcome` are ``.ok`` and
    ``.reason`` — telemetry labels every layer's validation outcome
    through that pair without isinstance checks.
    """

    status: ValidateStatus
    reason: str = ""
    serial: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ValidateStatus.OK


@runtime_checkable
class TokenBackend(Protocol):
    """The validation surface RADIUS servers (and anything else that checks
    a second factor) call — LinOTP's ``/validate/check`` as a typed seam.

    Implementations: :class:`repro.otpserver.server.OTPServer` itself
    (with a resolver chain attached, ``user_id`` is the RADIUS User-Name
    and the pipeline's ``ResolveIdentity`` stage joins it to the storage
    uid) and :class:`repro.ingest.QueuedBackend` in front of it.  ``code``
    is ``None`` (or empty) for the SMS "null request"; ``source`` is the
    requesting address when the caller knows it.
    """

    def validate(
        self, user_id: str, code: Optional[str], source: Optional[str] = None
    ) -> ValidateResult: ...


#: Guards lazy event attachment on tickets.  Shared (not per-ticket): it
#: is only taken on the cross-thread slow path, and per-ticket locks would
#: put an allocation back on the hot path the laziness exists to avoid.
_TICKET_LOCK = threading.Lock()


#: How long a waiter parks on its ticket before looking at the queue again.
_PARK_SECONDS = 0.05


class Ticket:
    """A claim check for one validation submitted to an
    :class:`~repro.ingest.IngestQueue`.

    ``submit`` returns immediately with a ticket; the result materialises
    when the item is serviced.  ``result()`` is **caller-runs**: the
    waiter services ready items itself until its ticket is done, so the
    same call sites work on one thread under
    :class:`~repro.common.clock.VirtualClock` and on many threads at once.

    The blocking :class:`threading.Event` is allocated lazily, only when
    ``result()`` actually has to wait on another thread: the common path
    resolves on the caller's own thread, where a done flag suffices.
    """

    __slots__ = ("_event", "_value", "_done", "_drain")

    def __init__(self, drain: Optional[Callable[["Ticket"], None]] = None) -> None:
        self._event: Optional[threading.Event] = None
        self._value: Optional[ValidateResult] = None
        self._done = False
        self._drain = drain

    def resolve(self, value: ValidateResult) -> None:
        self._value = value
        self._drain = None
        with _TICKET_LOCK:
            self._done = True
            event = self._event
        if event is not None:
            event.set()

    def done(self) -> bool:
        return self._done

    def result(self, timeout: Optional[float] = None) -> ValidateResult:
        """The validation outcome, waiting up to ``timeout`` (real) seconds.

        Raises :class:`TimeoutError` when the deadline passes unresolved.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done:
            drain = self._drain
            if drain is not None:
                drain(self)
                if self._done:
                    break
            # Another thread holds the item.  Park in short slices, not
            # forever: a transient failure puts the item back on the heap,
            # and only a waiter looks there.
            park = _PARK_SECONDS
            if deadline is not None:
                park = min(park, deadline - time.monotonic())
                if park <= 0:
                    raise TimeoutError(
                        f"ticket unresolved after {timeout}s (queue not being drained?)"
                    )
            with _TICKET_LOCK:
                event = None if self._done else self._event
                if event is None and not self._done:
                    event = self._event = threading.Event()
            if event is not None:
                event.wait(park)
        return self._value
