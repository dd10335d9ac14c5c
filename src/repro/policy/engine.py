"""The unified policy engine: every access rule behind one ``evaluate()``.

Before this module existed the deployment's rules were scattered across
layers: the exemption ACL lived in ``pam/acl.py`` and was consulted only
by ``pam_mfa_exemption``, the off/paired/countdown/full enforcement
ladder was parsed inline by ``pam_mfa_token``, and the 20-strike lockout
threshold was an ``OTPServerConfig`` field applied deep inside the
validate path.  Each layer could drift from the others — PAM could think
a user exempt while the OTP server counted their failures.

:class:`PolicyEngine` consolidates all four rule families:

* **exemption ACLs** — any object with ``check(user, ip)`` (the existing
  :class:`repro.pam.acl.ExemptionACL` hierarchy);
* the **enforcement ladder** (:class:`EnforcementLadder`) — Section 3.4's
  four modes, with every configuration error failing closed to ``full``
  and countdown deadlines expiring into ``full``;
* the **lockout rule** (:class:`LockoutPolicy`) — the paper's "20
  consecutive failed validation attempts" threshold;
* **risk** (:class:`~repro.policy.risk.RiskEngine`) — a per-attempt
  verdict that only ever tightens the rules above: STEP_UP withholds
  the exemption grant and upgrades passive outcomes to a challenge,
  DENY refuses outright.

Both the PAM token/exemption modules and the OTP server's authflow
pipeline evaluate against the same engine type (and can share one
instance), so the layers can never disagree about who is exempt, which
ladder phase is active, or when a token locks.
"""

from __future__ import annotations

from datetime import datetime, timezone
from enum import Enum
from math import ceil
from typing import Callable, Optional

from repro.common.clock import Clock, WallClock, parse_date
from repro.policy.risk import QUIET_ALLOW, RiskAction, RiskDecision, RiskEngine
from repro.telemetry import resolve_registry


class EnforcementMode(str, Enum):
    """Section 3.4's four-tier opt-in ladder."""

    OFF = "off"
    PAIRED = "paired"
    COUNTDOWN = "countdown"
    FULL = "full"


class PolicyAction(str, Enum):
    """What the engine tells a caller to do with a request."""

    EXEMPT = "exempt"  # ACL grant: skip the second factor entirely
    ALLOW = "allow"  # no challenge required (ladder off / unpaired in paired)
    NOTIFY = "notify"  # countdown: allow, but show the pair-by notice
    CHALLENGE = "challenge"  # demand a token code
    DENY = "deny"  # refuse outright


#: Decisions that let the user in without a token code.
_PASSIVE_ACTIONS = frozenset(
    {PolicyAction.EXEMPT, PolicyAction.ALLOW, PolicyAction.NOTIFY}
)


def _stamp_risk(decision: "Decision", risk: Optional["RiskDecision"]) -> "Decision":
    """Carry the risk verdict on the decision so callers can audit it."""
    if risk is None:
        return decision
    if risk is QUIET_ALLOW:
        decision.risk_score = 0.0
        decision.risk_action = "allow"
        decision.risk_signals = []
    else:
        decision.risk_score = risk.score
        decision.risk_action = risk.action.value
        decision.risk_signals = list(risk.signals)
    return decision


class Decision:
    """The engine's answer for one request."""

    __slots__ = (
        "action",
        "reason",
        "mode",
        "pairing",
        "pairing_resolved",
        "countdown_days",
        "risk_score",
        "risk_action",
        "risk_signals",
    )

    def __init__(
        self,
        action: PolicyAction,
        reason: str = "",
        mode: Optional[EnforcementMode] = None,
        pairing: Optional[str] = None,
        pairing_resolved: bool = False,
        countdown_days: int = 0,
    ) -> None:
        self.action = action
        self.reason = reason
        self.mode = mode
        self.pairing = pairing
        self.pairing_resolved = pairing_resolved
        self.countdown_days = countdown_days
        # Risk verdict, stamped when the engine has a RiskEngine:
        # score in [0, 1], action "allow"/"step_up"/"deny", fired signals.
        self.risk_score: Optional[float] = None
        self.risk_action: Optional[str] = None
        self.risk_signals: Optional[list] = None

    @property
    def allows_entry(self) -> bool:
        """True when no token round trip is required for entry."""
        return self.action in _PASSIVE_ACTIONS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Decision({self.action.value!r}, reason={self.reason!r})"


class AuthRequest:
    """One authentication attempt as the engine sees it.

    ``pairing_lookup`` makes the LDAP round trip lazy: the engine only
    resolves the pairing type when the active ladder mode needs it, so
    ``off`` mode costs no directory query (matching the PAM module's
    historical short-circuit).  ``screen`` is a :meth:`PolicyEngine.screen`
    already made for this attempt.
    """

    __slots__ = ("username", "source_ip", "_pairing", "_lookup", "_resolved", "screen")

    def __init__(
        self,
        username: str,
        source_ip: str = "",
        pairing: Optional[str] = None,
        pairing_lookup: Optional[Callable[[str], Optional[str]]] = None,
        screen: Optional[tuple] = None,
    ) -> None:
        self.username = username
        self.source_ip = source_ip
        self._pairing = pairing
        self._lookup = pairing_lookup
        self._resolved = pairing is not None or pairing_lookup is None
        self.screen = screen

    def resolve_pairing(self) -> Optional[str]:
        """The user's pairing type (``None`` = unpaired), fetched once."""
        if not self._resolved:
            self._pairing = self._lookup(self.username)
            self._resolved = True
        return self._pairing


class EnforcementLadder:
    """Parses and applies the four-tier ladder, failing closed.

    "If any configuration errors occur, the token module defaults to the
    fourth enforcement mode" — an unknown mode name, an unparseable
    deadline, or countdown without a deadline all coerce to ``full`` and
    raise the :attr:`config_error` flag.  "If the configured countdown
    date expires, the token module will default to the fourth mode" —
    :meth:`effective_mode` applies that transition per call.
    """

    def __init__(self, mode: str = "full", deadline: Optional[str] = None) -> None:
        self.config_error = False
        try:
            self.configured_mode = EnforcementMode(mode)
        except ValueError:
            self.configured_mode = EnforcementMode.FULL
            self.config_error = True
        self.deadline: Optional[datetime] = None
        if deadline is not None:
            try:
                self.deadline = parse_date(deadline)
            except ValueError:
                self.configured_mode = EnforcementMode.FULL
                self.config_error = True
        elif self.configured_mode is EnforcementMode.COUNTDOWN:
            self.configured_mode = EnforcementMode.FULL
            self.config_error = True

    def effective_mode(self, now: datetime) -> EnforcementMode:
        """The mode in force at ``now`` (countdown expires into full)."""
        if (
            self.configured_mode is EnforcementMode.COUNTDOWN
            and self.deadline is not None
            and now >= self.deadline
        ):
            return EnforcementMode.FULL
        return self.configured_mode

    def days_left(self, now: datetime) -> int:
        """Whole days until the countdown deadline (0 once passed)."""
        if self.deadline is None:
            return 0
        return max(0, ceil((self.deadline - now).total_seconds() / 86400))

    def snapshot(self) -> dict:
        return {
            "configured_mode": self.configured_mode.value,
            "deadline": self.deadline.isoformat() if self.deadline else None,
            "config_error": self.config_error,
        }


class LockoutPolicy:
    """The consecutive-failure deactivation rule (paper: 20 strikes)."""

    def __init__(self, threshold: int = 20) -> None:
        if threshold < 1:
            raise ValueError("lockout threshold must be at least 1")
        self.threshold = threshold

    def is_lockout(self, failcount: int) -> bool:
        """True when ``failcount`` consecutive failures must deactivate.

        The boundary is inclusive: exactly ``threshold`` failures locks,
        not ``threshold + 1``.
        """
        return failcount >= self.threshold

    def snapshot(self) -> dict:
        return {"threshold": self.threshold}


class PolicyEngine:
    """One evaluation surface over every rule family.

    ``exemptions`` is duck-typed: anything with ``check(user, ip)``
    (and optionally ``rules()``/``last_error`` for the snapshot) fits,
    so the existing file-backed and in-memory ACLs plug in unchanged.
    """

    def __init__(
        self,
        ladder: Optional[EnforcementLadder] = None,
        exemptions=None,
        lockout: Optional[LockoutPolicy] = None,
        clock: Optional[Clock] = None,
        telemetry=None,
        risk=None,
    ) -> None:
        self.clock = clock or WallClock()
        self.ladder = ladder or EnforcementLadder("full")
        self.exemptions = exemptions
        self.lockout = lockout or LockoutPolicy()
        #: The risk engine (``None`` = risk scoring disabled).  ``risk``
        #: is ``None``, ``True`` (a default engine on this clock) or a
        #: ready :class:`RiskEngine`, which keeps the clock it was built on
        #: (:meth:`evaluate` scores an attempt at this engine's instant).
        self.risk: Optional[RiskEngine] = self._adopt_risk(risk)
        self.telemetry = resolve_registry(telemetry)
        decisions = self.telemetry.counter(
            "policy_decisions_total", "policy engine decisions by action"
        )
        self._m_decisions = {
            action: decisions.labels(action=action.value) for action in PolicyAction
        }

    def _adopt_risk(self, risk) -> Optional[RiskEngine]:
        if not risk:
            return None
        if risk is True:
            return RiskEngine(self.clock)
        return risk

    # -- the PAM session's screen --------------------------------------------

    def screen(self, username: str, source_ip: str) -> tuple:
        """``(self, risk verdict or None, ACL grant)``: Figure 1's "MFA
        Exemption Granted?" with the verdict that may withhold it, asked
        once per PAM session.  A request carrying it makes this engine's
        :meth:`evaluate` neither score the attempt again (one attempt, one
        flag) nor re-walk the ACL.
        """
        risk, exemptions = self.risk, self.exemptions
        return (
            self,
            None if risk is None else risk.evaluate(username, source_ip),
            exemptions is not None and exemptions.check(username, source_ip),
        )

    # -- the one call every layer makes -------------------------------------

    def evaluate(self, request: AuthRequest, now: Optional[float] = None) -> Decision:
        """Fold every rule family into one :class:`Decision`.

        Order matters: the risk engine runs first (a DENY verdict refuses
        outright, before lockout counters or storage are touched; a
        STEP_UP verdict withholds the exemption grant and upgrades passive
        ladder outcomes to a challenge), then exemptions
        (a granted exemption requires "no further action by the user",
        including for locked accounts — matching the PAM stack, where the
        sufficient exemption module precedes the token module), then the
        ladder.
        """
        timestamp = self.clock.now() if now is None else now
        decision = self._evaluate(request, timestamp)
        if self.telemetry.enabled:
            self._m_decisions[decision.action].inc()
        return decision

    def _evaluate(self, request: AuthRequest, timestamp: float) -> Decision:
        screen = request.screen
        if screen is not None and screen[0] is self:
            _, risk, exempt = screen
        else:
            engine, exempt = self.risk, None  # the ACL is asked below, if at all
            # Scored at the instant this engine was asked about.
            risk = None if engine is None else engine.evaluate(
                request.username, request.source_ip, timestamp
            )
        step_up = False
        if risk is not None:
            if risk.action is RiskAction.DENY:
                return _stamp_risk(
                    Decision(
                        PolicyAction.DENY,
                        f"risk score {risk.score:.2f} at or above deny "
                        f"threshold ({', '.join(risk.signals)})",
                    ),
                    risk,
                )
            step_up = risk.action is RiskAction.STEP_UP
        if not step_up and exempt is None:
            exemptions = self.exemptions
            exempt = exemptions is not None and exemptions.check(
                request.username, request.source_ip
            )
        if not step_up and exempt:
            return _stamp_risk(
                Decision(PolicyAction.EXEMPT, "exemption ACL grant"), risk
            )
        mode = self.ladder.configured_mode
        if mode is EnforcementMode.COUNTDOWN:
            # Only a countdown reads the date: every other mode holds at any time.
            moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
            mode = self.ladder.effective_mode(moment)
        if mode is EnforcementMode.OFF and not step_up:
            # Single-factor phase: no pairing lookup, no challenge.
            return _stamp_risk(
                Decision(PolicyAction.ALLOW, "enforcement off", mode=mode), risk
            )
        pairing = request.resolve_pairing()
        if pairing is None:
            # Nothing to step up to: an unpaired account has no second
            # factor.  The verdict stays flagged in the risk engine's log,
            # but the ladder outcome stands.
            if mode is EnforcementMode.OFF:
                return _stamp_risk(
                    Decision(
                        PolicyAction.ALLOW,
                        "enforcement off",
                        mode=mode,
                        pairing_resolved=True,
                    ),
                    risk,
                )
            if mode is EnforcementMode.PAIRED:
                return _stamp_risk(
                    Decision(
                        PolicyAction.ALLOW,
                        "unpaired user during opt-in phase",
                        mode=mode,
                        pairing_resolved=True,
                    ),
                    risk,
                )
            if mode is EnforcementMode.COUNTDOWN:
                return _stamp_risk(
                    Decision(
                        PolicyAction.NOTIFY,
                        "unpaired user in countdown phase",
                        mode=mode,
                        pairing_resolved=True,
                        countdown_days=self.ladder.days_left(moment),
                    ),
                    risk,
                )
        return _stamp_risk(
            Decision(
                PolicyAction.CHALLENGE,
                "risk step-up forces the second factor" if step_up else "",
                mode=mode,
                pairing=pairing,
                pairing_resolved=True,
            ),
            risk,
        )

    # -- live reconfiguration ------------------------------------------------

    def set_ladder(self, mode: str, deadline: Optional[str] = None) -> None:
        """Switch enforcement phase live ("any of these modes may be set
        during production operation")."""
        self.ladder = EnforcementLadder(mode, deadline)

    def set_risk(self, risk) -> None:
        """Attach, replace, or (with ``None``) remove the risk engine live."""
        self.risk = self._adopt_risk(risk)

    # -- operator view -------------------------------------------------------

    def snapshot(self) -> dict:
        """The active policy (the ``policy`` section of ``OTPServer.status()``)."""
        moment = datetime.fromtimestamp(self.clock.now(), tz=timezone.utc)
        ladder = self.ladder.snapshot()
        ladder["effective_mode"] = self.ladder.effective_mode(moment).value
        snap: dict = {
            "ladder": ladder,
            "lockout": self.lockout.snapshot(),
            "exemptions": self._exemptions_snapshot(),
            "risk": (
                {"configured": True, **self.risk.snapshot()}
                if self.risk is not None
                else {"configured": False}
            ),
        }
        return snap

    def _exemptions_snapshot(self) -> dict:
        if self.exemptions is None:
            return {"configured": False}
        snap: dict = {"configured": True}
        rules = getattr(self.exemptions, "rules", None)
        if callable(rules):
            parsed = rules()
            snap["rules"] = len(parsed)
            snap["grants"] = sum(1 for r in parsed if getattr(r, "grant", False))
            snap["denials"] = sum(1 for r in parsed if not getattr(r, "grant", True))
        snap["last_error"] = getattr(self.exemptions, "last_error", None)
        return snap
