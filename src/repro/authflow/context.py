"""The mutable state one validation attempt carries through the stages.

A :class:`PipelineContext` is created per ``validate()`` call and handed
to each stage in order.  Stages communicate only through it: earlier
stages resolve the token rows and policy decision, later stages consume
them.  Audit records are *buffered* on the context and flushed by the
final Audit stage, so a validation writes its audit trail in one place,
in order, after the outcome is settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.results import TokenType, ValidateResult
from repro.policy import Decision


@dataclass
class AuditEvent:
    """One buffered audit record (the uid is supplied at flush time)."""

    action: str
    serial: str = ""
    success: bool = True
    detail: str = ""


@dataclass
class PipelineContext:
    """Everything the stages know about one validation attempt."""

    #: The submitted login name — the key policy uses (exemptions, risk
    #: feeds and flags), because it is the name PAM also has.
    user_id: str
    code: Optional[str]
    #: Requesting source address, when the caller knows it.  It feeds
    #: ``EvaluatePolicy``'s ``AuthRequest`` (ACL and risk), the honeytoken
    #: alarm, and ``ApplyOutcome``'s ``record_success``; ``None`` leaves
    #: the request's source empty and records no risk success.
    source: Optional[str] = None

    # -- resolved by the stages ---------------------------------------------
    #: The resolver chain's answer (maps the submitted name — possibly
    #: ``user@realm`` — onto the local account); ``None`` on a bare
    #: ``OTPServer`` with no chain attached.
    identity: object = None
    #: The storage key for this account — the resolved identity's uid
    #: (the submitted id itself on a bare server).  Everything stored per
    #: account (token rows, SMS challenge rows, audit rows) uses this, so
    #: it agrees with the admin operations, which take uids.
    uid: str = ""
    rows: List[dict] = field(default_factory=list)  # all token rows
    row: Optional[dict] = None  # the active row being validated
    token_type: Optional[TokenType] = None
    decision: Optional[Decision] = None  # policy engine's answer
    challenge: Optional[dict] = None  # outstanding SMS challenge row
    #: The instant the running stage began, when the pipeline read one.
    now: Optional[float] = None

    # -- outcome -------------------------------------------------------------
    #: Set once some stage has produced the final result.
    result: Optional[ValidateResult] = None
    #: Whether ApplyOutcome may touch failure counters for this result.
    #: Paths that never reached a token check (no pairing, locked account,
    #: null request, challenge dispatch, policy bypass) finish with
    #: ``outcome_applies=False`` — nothing was guessed, so nothing counts.
    outcome_applies: bool = True
    audit_events: List[AuditEvent] = field(default_factory=list)

    def finish(self, result: ValidateResult, outcome_applies: bool = True) -> None:
        """Settle the outcome; decision stages after this are skipped."""
        self.result = result
        self.outcome_applies = outcome_applies

    def audit(
        self, action: str, serial: str = "", success: bool = True, detail: str = ""
    ) -> None:
        """Buffer an audit record for the Audit stage to flush in order."""
        self.audit_events.append(AuditEvent(action, serial, success, detail))
