"""The staged validate pipeline with per-user concurrency.

:class:`AuthPipeline` runs a :class:`~repro.authflow.context.PipelineContext`
through an ordered stage list under a per-user striped lock
(:class:`~repro.authflow.locks.StripedLockSet`), replacing the seed's
server-wide critical section: concurrent validates for distinct users
proceed in parallel, while two attempts against the same user — the
failcount read-modify-write, the SMS challenge lifecycle — still
serialize.

Observability: every stage execution lands in the
``authflow_stage_seconds`` histogram (labelled by stage), so operators
can see where validate time goes; what the attempts decided is the
server's ``otp_validate_total`` (labelled by status).  A run writes its
stage times into a list with a slot per stage (NaN for a stage that did
not run) and hands the list to the histogram once, after the last stage:
one update and one lock acquisition per run, and a scrape never sees half
a run.  With telemetry off a run allocates nothing and reads no clock.
With it on, each boundary read is also the next stage's instant
(``PipelineContext.now``), which the stage asks instead of its clock.

A stage that throws (a storage fault, an id no resolver can parse) fails
the attempt *closed* — REJECT "internal error", an audit row naming the
stage and exception type, ``authflow_stage_errors_total{stage}`` — and the
terminal stages still run: ``run`` never raises on a stage's account.

The pipeline owns no threads: callers bring their own (one per RADIUS
datagram, or the ingestion queue's workers), and the striped lock is
what lets them overlap distinct users' storage round trips.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.authflow import locks
from repro.authflow.context import PipelineContext
from repro.common.clock import Clock, WallClock
from repro.common.results import ValidateResult, ValidateStatus
from repro.telemetry import label_key, resolve_registry


class AuthPipeline:
    """Runs the stage list for one attempt at a time."""

    def __init__(
        self,
        stages: Sequence,
        telemetry=None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        # Fixed for the pipeline's life: the per-stage label keys below line
        # up with exactly these stages.
        self.stages = tuple(stages)
        # Stage durations (telemetry on only) read the injected clock: wall
        # seconds normally, simulated seconds on a VirtualClock.
        self._clock = clock or WallClock()
        # Read per pipeline, not bound at import, so a monkeypatched
        # ``locks.DEFAULT_STRIPES`` takes effect on the next one built.
        self.locks = locks.StripedLockSet(locks.DEFAULT_STRIPES)
        self.telemetry = telemetry = resolve_registry(telemetry)
        self._m_stage_seconds = telemetry.histogram(
            "authflow_stage_seconds", "wall time spent per pipeline stage"
        )
        self._stage_keys = tuple(label_key({"stage": s.name}) for s in self.stages)
        #: A run's stage times before it starts: NaN, "did not run".
        self._not_run = (math.nan,) * len(self.stages)
        errors = telemetry.counter(
            "authflow_stage_errors_total", "stage exceptions failed closed, by stage"
        )
        self._m_stage_errors = tuple(errors.labels(stage=s.name) for s in self.stages)

    def run(
        self,
        user_id: str,
        code: Optional[str],
        source: Optional[str] = None,
        span=None,
    ) -> ValidateResult:
        """One validation attempt under the user's striped lock.  With
        telemetry on, ``span`` (the caller's open span, if it has one) ends at
        the run's last stage boundary: the lock release and the stage-time
        update after it (and the histogram fold that update may run) are
        not part of the span."""
        ctx = PipelineContext(user_id=user_id, code=code, source=source)
        live = self.telemetry.enabled
        with self.locks.lock_for(user_id):
            # One clock read per stage boundary: the end of a stage is the
            # start of the next one that runs (a skipped stage reads nothing),
            # and ``ctx.now`` hands it to that stage.
            if live:
                ctx.now = self._clock.now()
                durations = list(self._not_run)
            for slot, stage in enumerate(self.stages):
                if ctx.result is not None and not stage.terminal:
                    continue
                try:
                    stage.run(ctx)
                except Exception as exc:  # noqa: BLE001 — validate must not raise
                    # Fail closed, overriding even an OK a later stage
                    # could not apply; the client sees no exception text.
                    ctx.finish(
                        ValidateResult(ValidateStatus.REJECT, "internal error"),
                        outcome_applies=False,
                    )
                    error = f"{stage.name} raised {type(exc).__name__}"
                    ctx.audit("validate", success=False, detail=f"internal error: {error}")
                    if live:
                        self._m_stage_errors[slot].inc()
                finally:
                    if live:
                        started, ctx.now = ctx.now, self._clock.now()
                        durations[slot] = ctx.now - started
        if live:
            if span is not None:
                span.end = ctx.now
            self._m_stage_seconds._observe_run(self._stage_keys, durations)
        if ctx.result is None:
            raise RuntimeError(
                f"pipeline completed without a result for user {user_id!r}"
            )
        return ctx.result
