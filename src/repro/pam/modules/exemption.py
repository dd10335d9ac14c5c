"""``pam_mfa_exemption`` — in-house module #2.

"The user's information, including username and remote IP address are
compared with an existing configuration file that contains white and
blacklists specific to the second factor ... If an exemption is granted, no
further action by the user is required to gain SSH entry" (Section 3.4).

In the Figure-1 stack the module is ``sufficient``: a granted exemption
short-circuits past the token module; a denial is ignored and the user
continues to the token prompt.

The module asks the :class:`repro.policy.PolicyEngine` it is handed (its
system's one engine, shared with the token module): the engine's ACL
answers, and its risk rule may withhold the waiver.
"""

from __future__ import annotations

from repro.pam.framework import PAMResult, PAMSession
from repro.policy import PolicyEngine


class MFAExemptionModule:
    """Answers Figure 1's "MFA Exemption Granted?" from the live policy."""

    name = "pam_mfa_exemption"

    def __init__(self, policy: PolicyEngine) -> None:
        self._policy = policy

    @property
    def policy(self) -> PolicyEngine:
        return self._policy

    def authenticate(self, session: PAMSession) -> PAMResult:
        if self._policy.is_exempt(session.username, session.remote_ip):
            if self._policy.step_up_required(session.username, session.remote_ip):
                # Risk withholds the waiver: being `sufficient`, a SUCCESS
                # here would skip the token module entirely, so the grant
                # must be refused at this point for a step-up to bite.
                session.items["risk_step_up"] = True
                return PAMResult.AUTH_ERR
            session.items["mfa_exempt"] = True
            return PAMResult.SUCCESS
        return PAMResult.AUTH_ERR
