"""Validation result types and the back-end protocol seam.

The contract between anything that checks a second factor and anything
that asks: the RADIUS servers, the ingestion queue and the authflow
stages all build or consume these values, so they sit below all of
them.  ``repro.otpserver`` re-exports them as its public surface.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, runtime_checkable


class ValidateStatus(str, Enum):
    OK = "ok"
    REJECT = "reject"
    CHALLENGE_SENT = "challenge_sent"  # SMS dispatched, awaiting code
    CHALLENGE_PENDING = "challenge_pending"  # "SMS already sent" message
    LOCKED = "locked"
    NO_TOKEN = "no_token"


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
    is ``None`` (or empty) for the SMS "null request".  Backends that can
    do better than one-at-a-time validation additionally implement
    :class:`SubmitAPI`; callers discover it with ``isinstance`` (see
    :meth:`repro.radius.server.RADIUSServer.handle_batch`).
    """

    def validate(self, user_id: str, code: Optional[str]) -> ValidateResult: ...


#: One submission: ``(user_id, code)``; ``code`` is ``None``/"" for the
#: SMS null request that triggers a challenge.
SubmitRequest = Tuple[str, Optional[str]]


#: Guards lazy event attachment on tickets.  Shared (not per-ticket): it
#: is only taken on the cross-thread slow path, and per-ticket locks would
#: put an allocation back on the hot path the laziness exists to avoid.
_TICKET_LOCK = threading.Lock()


class Ticket:
    """A claim check for one submitted validation.

    ``submit`` returns immediately with a ticket; the result materialises
    when a worker thread (real time) or a queue pump (virtual time)
    services the item.  ``result()`` blocks in thread mode and drives the
    owning queue's pump inline when no workers are running, so the same
    call sites work under :class:`~repro.common.clock.VirtualClock`.

    The blocking :class:`threading.Event` is allocated lazily, only when
    ``result()`` actually has to wait on another thread: the common paths
    (synchronous backends via :meth:`completed`, the inline queue pump)
    resolve on the caller's own thread, where a done flag suffices.
    """

    __slots__ = ("_event", "_value", "_done", "_drain")

    def __init__(self, drain: Optional[Callable[["Ticket"], None]] = None) -> None:
        self._event: Optional[threading.Event] = None
        self._value: Optional[ValidateResult] = None
        self._done = False
        self._drain = drain

    @classmethod
    def completed(cls, value: ValidateResult) -> "Ticket":
        """A ticket that is already resolved — for synchronous backends."""
        ticket = cls()
        ticket._value = value
        ticket._done = True
        return ticket

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
        if not self._done and self._drain is not None:
            self._drain(self)
        if not self._done:
            with _TICKET_LOCK:
                event = None if self._done else self._event
                if event is None and not self._done:
                    event = self._event = threading.Event()
            if event is not None and not event.wait(timeout):
                raise TimeoutError(
                    f"ticket unresolved after {timeout}s (queue not being drained?)"
                )
        if not self._done:
            raise TimeoutError(
                f"ticket unresolved after {timeout}s (queue not being drained?)"
            )
        return self._value


@runtime_checkable
class SubmitAPI(Protocol):
    """The formal batch-submission surface.

    ``submit`` hands one request to the backend and returns a
    :class:`Ticket`; ``submit_many`` does the same for a batch, preserving
    order.  The synchronous implementation
    (:class:`~repro.otpserver.server.OTPServer`) returns
    already-completed tickets; the ingestion queue
    (:class:`~repro.ingest.IngestQueue`, and the
    :class:`~repro.ingest.QueuedBackend` fronting it) returns live ones
    that resolve as the queue drains.
    """

    def submit(self, request: SubmitRequest) -> Ticket: ...

    def submit_many(self, requests: Sequence[SubmitRequest]) -> List[Ticket]: ...
