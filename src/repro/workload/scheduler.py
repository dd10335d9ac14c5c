"""A minimal batch scheduler (SLURM-flavoured) with the two features the
MFA transition leaned on: job dependencies and mail-on-event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.common.clock import Clock, WallClock
from repro.common.errors import NotFoundError, ValidationError
from repro.common.ids import IdAllocator
from repro.portal.mailer import Mailer
from repro.simcore import EventScheduler


class JobState(str, Enum):
    PENDING = "pending"  # waiting for resources or dependencies
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED)


class MailEvent(str, Enum):
    BEGIN = "BEGIN"
    END = "END"
    FAIL = "FAIL"


@dataclass
class Job:
    """One batch job."""

    job_id: str
    user: str
    name: str
    wall_seconds: float
    state: JobState = JobState.PENDING
    depends_on: List[str] = field(default_factory=list)  # afterok semantics
    mail_events: Set[MailEvent] = field(default_factory=set)
    mail_to: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    fail_probability: float = 0.0


class BatchScheduler:
    """FIFO scheduler with a fixed node count, dependencies and mail."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        mailer: Optional[Mailer] = None,
        nodes: int = 4,
        rng: Optional[random.Random] = None,
    ) -> None:
        if nodes < 1:
            raise ValidationError(f"scheduler needs at least one node, got {nodes}")
        self.clock = clock or WallClock()
        self.mailer = mailer if mailer is not None else Mailer(self.clock)
        self.nodes = nodes
        self._rng = rng or random.Random()
        self._jobs: Dict[str, Job] = {}
        self._ids = IdAllocator()
        self.mails_sent = 0

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        user: str,
        name: str,
        wall_seconds: float,
        depends_on: Optional[List[str]] = None,
        mail_events: Optional[Set[MailEvent]] = None,
        mail_to: str = "",
        fail_probability: float = 0.0,
    ) -> Job:
        """``sbatch``: queue a job, optionally ``--dependency=afterok:...``
        and ``--mail-type=END,FAIL --mail-user=...``."""
        for dep in depends_on or []:
            if dep not in self._jobs:
                raise NotFoundError(f"dependency {dep!r} does not exist")
        job = Job(
            job_id=self._ids.next("job"),
            user=user,
            name=name,
            wall_seconds=wall_seconds,
            depends_on=list(depends_on or []),
            mail_events=set(mail_events or ()),
            mail_to=mail_to,
            submitted_at=self.clock.now(),
            fail_probability=fail_probability,
        )
        self._jobs[job.job_id] = job
        return job

    def cancel(self, job_id: str) -> None:
        job = self.get(job_id)
        if not job.state.terminal:
            job.state = JobState.CANCELLED
            job.finished_at = self.clock.now()

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise NotFoundError(f"no such job: {job_id}")
        return job

    def squeue(self, user: Optional[str] = None) -> List[Job]:
        """The job-status query a polling cron would issue."""
        return [
            j
            for j in self._jobs.values()
            if not j.state.terminal and (user is None or j.user == user)
        ]

    # -- execution ------------------------------------------------------------------

    def _dependencies_satisfied(self, job: Job) -> bool:
        for dep_id in job.depends_on:
            dep = self._jobs[dep_id]
            if dep.state is not JobState.COMPLETED:
                return False
        return True

    def _dependencies_failed(self, job: Job) -> bool:
        return any(
            self._jobs[d].state in (JobState.FAILED, JobState.CANCELLED)
            for d in job.depends_on
        )

    def _mail(self, job: Job, event: MailEvent) -> None:
        if event in job.mail_events and job.mail_to:
            self.mailer.send(
                job.mail_to,
                f"Job {job.job_id} ({job.name}) {event.value}",
                f"Job {job.job_id} for {job.user}: {event.value.lower()} at "
                f"{self.clock.now():.0f}",
            )
            self.mails_sent += 1

    def tick(self) -> None:
        """One scheduling pass at the current clock time."""
        now = self.clock.now()
        # Finish running jobs whose wall time elapsed.
        for job in self._jobs.values():
            if job.state is JobState.RUNNING and job.started_at is not None:
                if now - job.started_at >= job.wall_seconds:
                    failed = self._rng.random() < job.fail_probability
                    job.state = JobState.FAILED if failed else JobState.COMPLETED
                    job.finished_at = now
                    self._mail(job, MailEvent.FAIL if failed else MailEvent.END)
        # Cancel jobs whose afterok dependencies can never complete.
        for job in self._jobs.values():
            if job.state is JobState.PENDING and self._dependencies_failed(job):
                job.state = JobState.CANCELLED
                job.finished_at = now
        # Start pending jobs while nodes are free, FIFO by submission.
        running = sum(1 for j in self._jobs.values() if j.state is JobState.RUNNING)
        pending = sorted(
            (j for j in self._jobs.values() if j.state is JobState.PENDING),
            key=lambda j: j.submitted_at,
        )
        for job in pending:
            if running >= self.nodes:
                break
            if not self._dependencies_satisfied(job):
                continue
            job.state = JobState.RUNNING
            job.started_at = now
            running += 1
            self._mail(job, MailEvent.BEGIN)

    def run_until_idle(
        self,
        step: float = 60.0,
        max_steps: int = 100_000,
        scheduler: Optional["EventScheduler"] = None,
    ) -> int:
        """Drain the queue as scheduled ticks on the discrete-event core.

        Each tick is an event ``step`` seconds after the previous one; the
        series stops (no further event is scheduled) once no job is live,
        so the clock ends on the final tick's instant — the same contract
        the old polling loop offered.  Requires a :class:`VirtualClock`.
        Pass ``scheduler`` to ride a shared event heap (the caller drains
        it); otherwise a private scheduler is drained here.  Returns ticks
        consumed.
        """
        own = scheduler is None
        if own:
            scheduler = EventScheduler(clock=self.clock)
        ticks = 0

        def _tick() -> None:
            nonlocal ticks
            ticks += 1
            self.tick()
            if self.squeue() and ticks < max_steps:
                scheduler.schedule(step, _tick)

        scheduler.schedule(0.0, _tick)
        if own:
            scheduler.run()
        return ticks

    # -- reporting ---------------------------------------------------------------------

    def states(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return counts
