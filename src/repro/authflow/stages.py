"""The composable validation stages.

Each stage is a small object satisfying the :class:`Stage` protocol; the
:class:`~repro.authflow.pipeline.AuthPipeline` runs them in order against
one :class:`~repro.authflow.context.PipelineContext`.  The stage split
mirrors the decision structure of the old ``OTPServer._validate``
monolith:

* :class:`ResolveIdentity` — load the user's token rows; no pairing
  finishes early.
* :class:`EvaluatePolicy` — consult the :class:`~repro.policy.PolicyEngine`
  (ACL exemptions, risk, ladder) and apply the lockout state.
* :class:`ReplayGuard` — route the SMS "null request", enforce the
  challenge lifecycle's one-time bookkeeping (outstanding/expired), and
  reject codeless requests against non-SMS tokens.
* :class:`DispatchByTokenType` — the per-device-type code check
  (TOTP soft/hard, HOTP, SMS, static).
* :class:`ApplyOutcome` — failure counters, the lockout rule, success
  resets, pairing confirmation.
* :class:`Audit` — flush the buffered audit trail.

The first four are *decision* stages: once some stage finishes the
context they are skipped.  The last two are *terminal* stages
(``terminal = True``): they run for every attempt so counters and audit
records always land.

Stages hold a reference to the owning ``OTPServer`` and use its storage
tables, sealer, validator, clock, SMS gateway and metrics — they are the
thin remains of the former private methods, not reimplementations.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.authflow.context import PipelineContext
from repro.common.results import TokenType, ValidateResult, ValidateStatus
from repro.crypto.hotp import verify_hotp
from repro.crypto.totp import REASON_REPLAY, totp_at
from repro.policy import AuthRequest, PolicyAction, PolicyEngine
from repro.resolvers.base import ResolverUnavailableError
from repro.resolvers.federation import AssertionInvalid, split_assertion_code

#: Who an SMS token code says it is from.
SMS_ISSUER = "HPC-Center"
#: Seconds an SMS token code stays usable after it is sent.
SMS_CODE_VALIDITY = 300.0
#: Presses past the stored counter an event (HOTP) token may be ahead.
HOTP_LOOK_AHEAD = 10


@runtime_checkable
class Stage(Protocol):
    """One step of the validate pipeline."""

    #: Label used for per-stage telemetry and progress annotations.
    name: str
    #: Terminal stages run even after the context is finished.
    terminal: bool

    def run(self, ctx: PipelineContext) -> None: ...


class ResolveIdentity:
    """The one username→uid join, then load the account's token rows.

    The submitted login name (which may carry a ``@realm`` suffix) goes
    through the server's :class:`~repro.resolvers.chain.ResolverChain`;
    from here on **storage keys on the resolved uid** (``ctx.uid``: token
    rows, SMS challenges, audit rows — the key admin operations use) and
    **policy keys on the login name** (``ctx.user_id``: exemptions, risk
    feeds and flags — the name PAM also has).  An
    unresolved name is NO_TOKEN; a chain where every candidate resolver
    is down is an explicit (audited) REJECT — unavailability must never
    read as "this user does not exist".

    A bare ``OTPServer`` with no chain attached treats the submitted id
    as the storage key itself: the reference chained deployments are
    compared against (``MFACenter`` always attaches a chain).
    """

    name = "resolve_identity"
    terminal = False

    def __init__(self, server) -> None:
        self.server = server

    def run(self, ctx: PipelineContext) -> None:
        server = self.server
        with server._stats_lock:
            server.validate_requests += 1
        ctx.uid = ctx.user_id
        chain = server.resolvers
        if chain is not None:
            try:
                identity = chain.resolve(ctx.user_id)
            except ResolverUnavailableError as exc:
                ctx.audit("validate", success=False, detail=str(exc))
                ctx.finish(
                    ValidateResult(
                        ValidateStatus.REJECT, "identity resolvers unavailable"
                    ),
                    outcome_applies=False,
                )
                return
            if identity is None:
                ctx.audit("validate", success=False, detail="unresolved user")
                ctx.finish(
                    ValidateResult(ValidateStatus.NO_TOKEN, "unknown user"),
                    outcome_applies=False,
                )
                return
            ctx.identity = identity
            ctx.uid = identity.uid
        ctx.rows = server._user_tokens(ctx.uid)
        if not ctx.rows:
            ctx.audit("validate", success=False, detail="no token")
            ctx.finish(
                ValidateResult(ValidateStatus.NO_TOKEN, "no device pairing"),
                outcome_applies=False,
            )


class EvaluatePolicy:
    """Ask the policy engine, then apply the lockout state.

    The engine's risk and exemption checks run first — an exempt source
    passes even a locked account, matching the PAM stack where the
    sufficient exemption module precedes the token module.  The default
    OTP-server engine (full ladder, no exemptions, no risk) always
    answers CHALLENGE, which reduces this stage to the seed's
    locked-account check.
    """

    name = "evaluate_policy"
    terminal = False

    def __init__(self, server, policy: PolicyEngine) -> None:
        self.server = server
        self.policy = policy

    def run(self, ctx: PipelineContext) -> None:
        # Pairing is already resolved — rows are loaded — so the request
        # carries it as a literal instead of a lookup.
        pairing = TokenType(ctx.rows[0]["token_type"])._value_ if ctx.rows else None
        decision = self.policy.evaluate(
            AuthRequest(ctx.user_id, ctx.source or "", pairing=pairing),
            now=self.server.clock.now(),
        )
        ctx.decision = decision
        if decision.action in (PolicyAction.EXEMPT, PolicyAction.ALLOW):
            # Policy says no token code is required (ACL grant, or the
            # ladder is off/opt-in): succeed without touching counters.
            ctx.audit("validate", success=True, detail=decision.reason)
            ctx.finish(
                ValidateResult(ValidateStatus.OK, decision.reason),
                outcome_applies=False,
            )
            return
        if decision.action is PolicyAction.DENY:
            ctx.audit("validate", success=False, detail=decision.reason)
            self._alarm_if_decoy(ctx, "risk-denied")
            ctx.finish(
                ValidateResult(ValidateStatus.REJECT, decision.reason),
                outcome_applies=False,
            )
            return
        active = [r for r in ctx.rows if r["active"]]
        if not active:
            ctx.audit("validate", success=False, detail="locked")
            self._alarm_if_decoy(ctx, "locked")
            ctx.finish(
                ValidateResult(ValidateStatus.LOCKED, "account temporarily deactivated"),
                outcome_applies=False,
            )
            return
        ctx.row = active[0]
        ctx.token_type = TokenType(ctx.row["token_type"])

    def _alarm_if_decoy(self, ctx: PipelineContext, why: str) -> None:
        """A code submitted against a honeytoken pairing must alarm even
        when policy rejects the attempt before the dispatch stage ever
        sees it — otherwise a risk-denied probe would be the one decoy
        use that goes unrecorded.  Null requests touch no credential and
        do not count as a use."""
        if not ctx.code or not ctx.rows:
            return
        row = ctx.rows[0]
        if TokenType(row["token_type"]) is not TokenType.HONEY:
            return
        self.server.raise_honeytoken_alarm(
            ctx.user_id, row["serial"], False, ctx.source
        )
        ctx.audit(
            "honeytoken_alarm",
            serial=row["serial"],
            success=False,
            detail=f"honeytoken probed ({why}) from {ctx.source or 'unknown'}",
        )


class ReplayGuard:
    """Null-request routing and SMS challenge one-time bookkeeping.

    For SMS tokens this stage owns the challenge *lifecycle* — starting a
    challenge on the null request, answering "already sent" while one is
    outstanding, expiring stale codes — while the actual code comparison
    stays in :class:`DispatchByTokenType`.  A missing or expired
    challenge is a counted failure (something was guessed against no
    valid code); the null request itself never touches counters.
    """

    name = "replay_guard"
    terminal = False

    def __init__(self, server) -> None:
        self.server = server

    def run(self, ctx: PipelineContext) -> None:
        if ctx.code is None or ctx.code == "":
            if ctx.token_type is TokenType.SMS:
                self._start_sms_challenge(ctx)
            else:
                # Null request against a non-SMS token is just a failed
                # attempt without a counter hit (nothing was guessed).
                ctx.finish(
                    ValidateResult(ValidateStatus.REJECT, "token code required"),
                    outcome_applies=False,
                )
            return
        if ctx.token_type is not TokenType.SMS:
            return
        challenges = self.server.challenges
        if not challenges.exists(ctx.uid):
            ctx.finish(
                ValidateResult(
                    ValidateStatus.REJECT,
                    "no SMS challenge outstanding",
                    serial=ctx.row["serial"],
                )
            )
            return
        challenge = challenges.get(ctx.uid)
        if challenge["expires_at"] <= self.server.clock.now():
            challenges.delete(ctx.uid)
            ctx.finish(
                ValidateResult(
                    ValidateStatus.REJECT, "token code expired", serial=ctx.row["serial"]
                )
            )
            return
        ctx.challenge = challenge

    def _start_sms_challenge(self, ctx: PipelineContext) -> None:
        server = self.server
        row = ctx.row
        challenges = server.challenges
        now = server.clock.now()
        if challenges.exists(ctx.uid):
            outstanding = challenges.get(ctx.uid)
            if outstanding["expires_at"] > now:
                # "LinOTP will not forward to Twilio and instead ... a
                # response message ... that the SMS has already been sent."
                if server.telemetry.enabled:
                    server._m_sms_challenges.inc(result="pending")
                ctx.finish(
                    ValidateResult(
                        ValidateStatus.CHALLENGE_PENDING,
                        "an SMS token code has already been sent",
                        serial=row["serial"],
                    ),
                    outcome_applies=False,
                )
                return
            challenges.delete(ctx.uid)
        secret = server._sealer.unseal(row["sealed_secret"])
        validator = server._validator
        code = totp_at(secret, now, digits=validator.digits, step=validator.step)
        server.sms.send(row["phone_number"], f"Your {SMS_ISSUER} token code is {code}")
        challenges.insert(
            {
                "user_id": ctx.uid,
                "serial": row["serial"],
                "sealed_code": server._sealer.seal(code.encode()),
                "sent_at": now,
                "expires_at": now + SMS_CODE_VALIDITY,
            }
        )
        ctx.audit("sms_challenge", serial=row["serial"])
        if server.telemetry.enabled:
            server._m_sms_challenges.inc(result="sent")
        ctx.finish(
            ValidateResult(
                ValidateStatus.CHALLENGE_SENT, "SMS token code sent", serial=row["serial"]
            ),
            outcome_applies=False,
        )


class DispatchByTokenType:
    """The per-device-type code check (Section 3.3's four device paths)."""

    name = "dispatch"
    terminal = False

    def __init__(self, server) -> None:
        self.server = server
        self._handlers = {
            TokenType.SMS: self._check_sms,
            TokenType.HOTP: self._check_hotp,
            TokenType.STATIC: self._check_static,
            TokenType.SOFT: self._check_totp,
            TokenType.HARD: self._check_totp,
            TokenType.HONEY: self._check_honeytoken,
            TokenType.FEDERATED: self._check_federated,
        }

    def run(self, ctx: PipelineContext) -> None:
        ctx.finish(self._handlers[ctx.token_type](ctx))

    def _check_sms(self, ctx: PipelineContext) -> ValidateResult:
        serial = ctx.row["serial"]
        expected = self.server._sealer.unseal(ctx.challenge["sealed_code"]).decode()
        if expected == ctx.code:
            # The code is nullified on success.
            self.server.challenges.delete(ctx.uid)
            return ValidateResult(ValidateStatus.OK, serial=serial)
        # A mismatch leaves the challenge outstanding (Section 3.2: "In the
        # event of a token mismatch, the token code remains valid").
        return ValidateResult(ValidateStatus.REJECT, "invalid token code", serial=serial)

    def _check_hotp(self, ctx: PipelineContext) -> ValidateResult:
        server = self.server
        row = ctx.row
        secret = server._sealer.unseal(row["sealed_secret"])
        matched = verify_hotp(
            secret,
            ctx.code,
            counter=row["hotp_counter"],
            look_ahead=HOTP_LOOK_AHEAD,
            digits=server._validator.digits,
        )
        if matched is not None:
            # Advance past the matched counter: consumed codes and any
            # skipped presses can never be replayed.
            server.tokens.update(row["serial"], {"hotp_counter": matched + 1})
            return ValidateResult(ValidateStatus.OK, serial=row["serial"])
        return ValidateResult(
            ValidateStatus.REJECT, "invalid token code", serial=row["serial"]
        )

    def _check_static(self, ctx: PipelineContext) -> ValidateResult:
        stored = self.server._sealer.unseal(ctx.row["static_code_sealed"]).decode()
        ok = stored == ctx.code
        return ValidateResult(
            ValidateStatus.OK if ok else ValidateStatus.REJECT,
            "" if ok else "invalid token code",
            serial=ctx.row["serial"],
        )

    def _check_totp(self, ctx: PipelineContext) -> ValidateResult:
        server = self.server
        row = ctx.row
        secret = server._sealer.unseal(row["sealed_secret"])
        outcome = server._validator.validate(row["serial"], secret, ctx.code)
        if outcome.reason == REASON_REPLAY and server.telemetry.enabled:
            server._m_replay.inc(serial=row["serial"])
        return ValidateResult(
            ValidateStatus.OK if outcome.ok else ValidateStatus.REJECT,
            outcome.reason,
            serial=row["serial"],
        )

    def _check_federated(self, ctx: PipelineContext) -> ValidateResult:
        """Verify a home-site bearer assertion as the second factor.

        The submitted "code" is the assertion (``FED1.payload.sig``),
        optionally carrying a local step-up PIN as a fourth dot-part.
        Verification failures are ordinary counted failures — a replayed
        or forged assertion walks through ApplyOutcome like a wrong TOTP
        code, feeding failcount, lockout and the risk stage.  When the
        risk stage answered STEP_UP, a valid assertion alone is not
        enough: the sealed local PIN must accompany it.

        **One assertion per attempt**: ``verifier.verify`` burns the
        nonce before the subject and step-up checks run, so an assertion
        is consumed by its first submission even when that submission is
        rejected (subject mismatch, missing step-up PIN).  A client that
        hits STEP_UP cannot retry the same assertion with the PIN
        appended — it must mint a fresh one.  This is deliberate: a
        multi-use window would let an attacker who intercepts a rejected
        assertion replay it, and it bounds brute-forcing the step-up PIN
        at one guess per freshly issued assertion.
        """
        server = self.server
        row = ctx.row
        serial = row["serial"]
        verifier = server.federation
        if verifier is None:
            return ValidateResult(
                ValidateStatus.REJECT, "federation not configured", serial=serial
            )
        assertion, step_up_code = split_assertion_code(ctx.code)
        try:
            payload = verifier.verify(assertion)
        except AssertionInvalid as exc:
            return ValidateResult(ValidateStatus.REJECT, str(exc), serial=serial)
        principal = f"{payload['sub']}@{payload['site']}"
        if principal != row.get("federated_principal"):
            return ValidateResult(
                ValidateStatus.REJECT, "assertion subject mismatch", serial=serial
            )
        if ctx.decision is not None and ctx.decision.risk_action == "step_up":
            sealed = row.get("static_code_sealed")
            if sealed is None:
                return ValidateResult(
                    ValidateStatus.REJECT,
                    "risk step-up: no local second factor enrolled",
                    serial=serial,
                )
            stored = server._sealer.unseal(sealed).decode()
            if step_up_code != stored:
                return ValidateResult(
                    ValidateStatus.REJECT,
                    "risk step-up: local second factor required",
                    serial=serial,
                )
        return ValidateResult(ValidateStatus.OK, serial=serial)

    def _check_honeytoken(self, ctx: PipelineContext) -> ValidateResult:
        # Validate exactly like a soft token — nothing in the response may
        # let the attacker holding the stolen seed distinguish the decoy —
        # then alarm on the server side whichever way the check went.
        result = self._check_totp(ctx)
        serial = ctx.row["serial"]
        self.server.raise_honeytoken_alarm(ctx.user_id, serial, result.ok, ctx.source)
        ctx.audit(
            "honeytoken_alarm",
            serial=serial,
            success=False,
            detail=(
                f"honeytoken {'accepted' if result.ok else 'probed'} "
                f"from {ctx.source or 'unknown'}"
            ),
        )
        return result


class ApplyOutcome:
    """Failure counters, the lockout rule, and success-side resets."""

    name = "apply_outcome"
    terminal = True

    def __init__(self, server, policy: PolicyEngine) -> None:
        self.server = server
        self.policy = policy

    def run(self, ctx: PipelineContext) -> None:
        if ctx.result is None or not ctx.outcome_applies or ctx.row is None:
            return
        server = self.server
        row = ctx.row
        tokens = server.tokens
        if ctx.result.ok:
            # Write only the columns that differ from the row ResolveIdentity
            # read: a warm success writes nothing.  The read and this check
            # run under the login name's striped lock, so every validate
            # that could raise this name's failcount is serialised behind
            # them.  Two names resolving to one uid may take different
            # stripes; there either write could already land last, so
            # skipping a no-op adds no state a full write could not reach.
            changes = {}
            if row["failcount"]:
                changes["failcount"] = 0
            if not row["pairing_confirmed"]:
                changes["pairing_confirmed"] = True
            if changes:
                tokens.update(row["serial"], changes)
            ctx.audit("validate", serial=row["serial"], success=True)
            # Feed the shared risk stage: the origin becomes known-good and
            # the account's failure burst resets.  A sourceless call (the
            # RADIUS server does not forward the client address) still counts
            # as a success but must not teach the engine an empty origin.
            if self.policy.risk is not None and ctx.source:
                self.policy.risk.record_success(ctx.user_id, ctx.source)
            return
        failcount = row["failcount"] + 1
        changes: dict = {"failcount": failcount}
        ctx.audit(
            "validate", serial=row["serial"], success=False, detail=ctx.result.reason
        )
        if self.policy.lockout.is_lockout(failcount):
            changes["active"] = False
            if server.telemetry.enabled:
                server._m_lockouts.inc()
            ctx.audit(
                "lockout",
                serial=row["serial"],
                success=False,
                detail=f"{failcount} consecutive failures",
            )
        tokens.update(row["serial"], changes)
        if self.policy.risk is not None:
            self.policy.risk.record_failure(ctx.user_id)


class Audit:
    """Flush the buffered audit trail, in order, exactly once."""

    name = "audit"
    terminal = True

    def __init__(self, server) -> None:
        self.server = server

    def run(self, ctx: PipelineContext) -> None:
        for event in ctx.audit_events:
            self.server.audit.record(
                event.action,
                ctx.uid,
                event.serial,
                success=event.success,
                detail=event.detail,
            )
        ctx.audit_events.clear()


def default_stages(server, policy: PolicyEngine) -> list:
    """The standard six-stage validate pipeline, in order."""
    return [
        ResolveIdentity(server),
        EvaluatePolicy(server, policy),
        ReplayGuard(server),
        DispatchByTokenType(server),
        ApplyOutcome(server, policy),
        Audit(server),
    ]
