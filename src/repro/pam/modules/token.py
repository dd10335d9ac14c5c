"""``pam_mfa_token`` — in-house module #3, the heart of the opt-in design.

Implements Figure 2's decision tree and the four-tier enforcement ladder of
Section 3.4:

* ``off``       — module exits success; the system is back to single factor.
* ``paired``    — users with a device pairing are challenged; everyone else
  passes through untouched (phase 1 of the rollout).
* ``countdown`` — unpaired users see "you have X days to pair, visit Y" and
  must press return to acknowledge; paired users are challenged (phase 2).
  Past the deadline the module behaves as ``full``.
* ``full``      — everyone is challenged; no pairing means no entry
  (phase 3).  Configuration errors also land here: the module fails closed.

The ladder itself lives in the :class:`repro.policy.PolicyEngine` the
module is handed — its system's one engine, the same type the OTP server's
validate pipeline consults — and the module's ``mode=``/``deadline=``
options in the pam.d text are what set it (:mod:`repro.pam.registry`); the
module owns no rules of its own.  It turns the engine's
:class:`~repro.policy.Decision` into PAM conversation behaviour:
the pairing type comes from an LDAP query (lazily, so ``off`` mode costs
no directory round trip); the token code round trip runs over the
round-robin RADIUS client, including the SMS null-request /
challenge-response exchange.
"""

from __future__ import annotations

from typing import Optional

from repro.directory.ldap import equality_filter
from repro.pam.framework import PAMResult, PAMSession
from repro.policy import AuthRequest, EnforcementMode, PolicyAction, PolicyEngine
from repro.radius.client import AuthStatus, RADIUSClient

__all__ = ["PROMPT", "MFATokenModule"]

PROMPT = "Token Code: "


class MFATokenModule:
    """The RADIUS-backed token-code check with opt-in enforcement modes."""

    name = "pam_mfa_token"

    def __init__(
        self,
        ldap,
        radius: RADIUSClient,
        policy: PolicyEngine,
        base_dn: str = "ou=people,dc=center,dc=edu",
        info_url: str = "https://portal.center.edu/mfa",
        passive_notice: bool = False,
    ) -> None:
        self._ldap = ldap
        self._radius = radius
        self._policy = policy
        self._base_dn = base_dn
        self._info_url = info_url
        # Section 4.2's first messaging wave: in `paired` mode, show
        # unpaired interactive users a passive one-line notice (no
        # acknowledgement required — that escalation is `countdown` mode).
        self._passive_notice = passive_notice

    @property
    def effective_mode(self) -> EnforcementMode:
        return self._policy.ladder.configured_mode

    @property
    def had_config_error(self) -> bool:
        return self._policy.ladder.config_error

    @property
    def policy(self) -> PolicyEngine:
        """The engine this module evaluates against."""
        return self._policy

    # -- LDAP pairing lookup (Figure 2, first box) ----------------------------

    def _pairing_type(self, username: str) -> Optional[str]:
        # The login name is attacker-chosen text: compared as a literal uid,
        # never parsed, it cannot be a wildcard or a broken filter.
        entries = self._ldap.search(self._base_dn, equality_filter("uid", username))
        if not entries:
            return None
        pairing = entries[0].first("mfaPairingType", "unpaired")
        return None if pairing == "unpaired" else pairing

    # -- the module entry point ------------------------------------------------

    def authenticate(self, session: PAMSession) -> PAMResult:
        decision = self._policy.evaluate(
            AuthRequest(
                session.username,
                session.remote_ip,
                pairing_lookup=self._pairing_type,
            ),
            now=session.clock.now(),
        )
        if decision.risk_action is not None:
            session.items["risk_score"] = decision.risk_score
            session.items["risk_signals"] = decision.risk_signals
        if decision.action is PolicyAction.DENY:
            # Refused before any factor is asked for: no pairing lookup,
            # no prompt, no RADIUS round trip.
            if session.conversation is not None:
                session.conversation.error("access denied by policy")
            return PAMResult.AUTH_ERR
        if decision.action is PolicyAction.EXEMPT:
            # The Figure-1 stack normally grants exemptions one module
            # earlier; a stack without that line is waived here.
            session.items["mfa_exempt"] = True
            return PAMResult.SUCCESS
        if decision.mode is EnforcementMode.OFF:
            # Single-factor phase: no LDAP lookup happened, nothing to log.
            return PAMResult.SUCCESS

        session.items["mfa_pairing"] = decision.pairing
        if session.telemetry.enabled:
            session.telemetry.counter(
                "pam_token_enforcement_total",
                "token-module decisions by effective mode and pairing type",
            ).inc(mode=decision.mode._value_, pairing=decision.pairing or "unpaired")

        if decision.action is PolicyAction.ALLOW:
            # Unpaired user during the opt-in (`paired`) phase.
            if self._passive_notice and session.conversation is not None:
                session.conversation.info(
                    "Multi-factor authentication is available; pair a "
                    f"device at {self._info_url}"
                )
            return PAMResult.SUCCESS
        if decision.action is PolicyAction.NOTIFY:
            return self._countdown_notice(session, decision.countdown_days)
        # CHALLENGE: prompt regardless; an unpaired user in `full` mode is
        # denied after the round trip (the prompt leaks nothing about
        # pairing state).
        return self._challenge(session, decision.pairing)

    # -- countdown messaging (phase 2) -----------------------------------------

    def _countdown_notice(self, session: PAMSession, days_left: int) -> PAMResult:
        if session.conversation is None:
            return PAMResult.AUTH_ERR
        session.conversation.info(
            f"Multi-factor authentication will be mandatory in {days_left} "
            f"day(s). Pair a device now: {self._info_url}"
        )
        # "the user must press return to acknowledge that they have read
        # and received this statement."
        session.conversation.prompt_echo_on("Press return to acknowledge: ")
        session.items["mfa_countdown_days"] = days_left
        return PAMResult.SUCCESS

    # -- the Figure-2 challenge-response ----------------------------------------

    def _challenge(self, session: PAMSession, pairing: Optional[str]) -> PAMResult:
        if session.conversation is None:
            return PAMResult.AUTH_ERR
        state = None
        if pairing == "sms":
            # "a null request is first sent to the LinOTP back end to
            # initiate a text message."
            response = self._radius.authenticate(
                session.username, "", source_override=None
            )
            if response.status is AuthStatus.CHALLENGE:
                session.conversation.info(response.message)
                state = response.state
            elif response.status is AuthStatus.TIMEOUT:
                session.conversation.error(
                    "authentication service unavailable; try again later"
                )
                return PAMResult.AUTH_ERR
            else:
                session.conversation.error(response.message)
                return PAMResult.AUTH_ERR
        code = session.conversation.prompt_echo_off(PROMPT)
        response = self._radius.authenticate(session.username, code, state=state)
        if response.status is AuthStatus.ACCEPT:
            session.items["second_factor"] = pairing or "none"
            return PAMResult.SUCCESS
        if response.status is AuthStatus.TIMEOUT:
            session.conversation.error(
                "authentication service unavailable; try again later"
            )
        else:
            session.conversation.error(response.message or "authentication error")
        return PAMResult.AUTH_ERR
