"""Unified access policy: exemptions, enforcement ladder, lockout and
risk — one ``PolicyEngine.evaluate(request) -> Decision`` consumed by
both the PAM modules and the OTP server's authflow pipeline.
"""

from repro.policy.engine import (
    AuthRequest,
    Decision,
    EnforcementLadder,
    EnforcementMode,
    LockoutPolicy,
    PolicyAction,
    PolicyEngine,
)
from repro.policy.risk import RiskAction, RiskEngine

__all__ = [
    "AuthRequest",
    "Decision",
    "EnforcementLadder",
    "EnforcementMode",
    "LockoutPolicy",
    "PolicyAction",
    "PolicyEngine",
    "RiskAction",
    "RiskEngine",
]
