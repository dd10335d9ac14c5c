"""Unified access policy: exemptions, enforcement ladder, lockout,
admission control, risk — one ``PolicyEngine.evaluate(request) ->
Decision`` consumed by both the PAM modules and the OTP server's
authflow pipeline.
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
from repro.policy.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.policy.risk import RiskAction, RiskEngine

__all__ = [
    "AuthRequest",
    "Decision",
    "EnforcementLadder",
    "EnforcementMode",
    "LockoutPolicy",
    "PolicyAction",
    "PolicyEngine",
    "RateLimitConfig",
    "RiskAction",
    "RiskEngine",
    "TokenBucketLimiter",
]
