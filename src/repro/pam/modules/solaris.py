"""``pam_solaris_mfa`` — in-house module #4.

"a module specific for use on Oracle Solaris operating systems that combine
the public key and MFA exemption checks to accommodate differences in PAM
stack processing logic" (Section 3.4).  Solaris PAM lacks the Linux jump
actions, so the two checks are fused: success means *both* the public key
already passed *and* an exemption applies (skip everything), and the module
communicates partial outcomes through session items instead of stack
position.

The fusion is literal: the module runs ``pam_pubkey_success`` and
``pam_mfa_exemption`` and combines their answers, so the Solaris waiver is
the Linux waiver — same engine, same ACL, withheld by the same risk rule.
"""

from __future__ import annotations

from repro.pam.framework import PAMResult, PAMSession
from repro.pam.modules.exemption import MFAExemptionModule
from repro.pam.modules.pubkey import DEFAULT_WINDOW_SECONDS, PublicKeySuccessModule
from repro.policy import PolicyEngine


class SolarisMFAModule:
    """Combined public-key-success + exemption check for Solaris stacks."""

    name = "pam_solaris_mfa"

    def __init__(
        self,
        authlog,
        policy: PolicyEngine,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        self._pubkey = PublicKeySuccessModule(authlog, window_seconds)
        self._exemption = MFAExemptionModule(policy)

    @property
    def policy(self) -> PolicyEngine:
        return self._exemption.policy

    def authenticate(self, session: PAMSession) -> PAMResult:
        pubkey_ok = self._pubkey.authenticate(session) is PAMResult.SUCCESS
        exempt = self._exemption.authenticate(session) is PAMResult.SUCCESS
        if pubkey_ok and exempt:
            # First factor proven and second factor waived: nothing left for
            # the rest of the stack to ask.
            return PAMResult.SUCCESS
        # Otherwise the stack continues: IGNORE keeps Solaris's sequential
        # processing moving without contributing a verdict.
        return PAMResult.IGNORE
