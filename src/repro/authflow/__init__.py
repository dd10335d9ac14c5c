"""The staged authentication pipeline.

``OTPServer`` assembles the six standard stages (ResolveIdentity →
EvaluatePolicy → ReplayGuard → DispatchByTokenType → ApplyOutcome →
Audit) into an :class:`AuthPipeline`, which runs each attempt under a
per-user striped lock on the caller's thread.  See
:mod:`repro.authflow.stages` for the stage semantics and
docs/ARCHITECTURE.md for the decision-flow diagram.
"""

from repro.authflow.context import AuditEvent, PipelineContext
from repro.authflow.locks import DEFAULT_STRIPES, StripedLockSet
from repro.authflow.pipeline import AuthPipeline, ConcurrencyConfig
from repro.authflow.stages import (
    ApplyOutcome,
    Audit,
    DispatchByTokenType,
    EvaluatePolicy,
    ReplayGuard,
    ResolveIdentity,
    Stage,
    default_stages,
)

__all__ = [
    "AuditEvent",
    "AuthPipeline",
    "ApplyOutcome",
    "Audit",
    "ConcurrencyConfig",
    "DEFAULT_STRIPES",
    "DispatchByTokenType",
    "EvaluatePolicy",
    "PipelineContext",
    "ReplayGuard",
    "ResolveIdentity",
    "Stage",
    "StripedLockSet",
    "default_stages",
]
