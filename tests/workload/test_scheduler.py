"""Batch scheduler: states, dependencies, mail events, the mitigations."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import NotFoundError, ValidationError
from repro.workload.scheduler import BatchScheduler, JobState, MailEvent


@pytest.fixture
def clock():
    return VirtualClock(1_000_000.0)


@pytest.fixture
def scheduler(clock):
    return BatchScheduler(clock=clock, nodes=2, rng=random.Random(1))


class TestLifecycle:
    def test_submit_pending(self, scheduler):
        job = scheduler.submit("alice", "sim", wall_seconds=3600)
        assert job.state is JobState.PENDING

    def test_runs_and_completes(self, scheduler, clock):
        job = scheduler.submit("alice", "sim", wall_seconds=3600)
        scheduler.tick()
        assert scheduler.get(job.job_id).state is JobState.RUNNING
        clock.advance(3600)
        scheduler.tick()
        assert scheduler.get(job.job_id).state is JobState.COMPLETED

    def test_node_limit_respected(self, scheduler, clock):
        jobs = [scheduler.submit("alice", f"j{i}", 600) for i in range(4)]
        scheduler.tick()
        states = [scheduler.get(j.job_id).state for j in jobs]
        assert states.count(JobState.RUNNING) == 2
        assert states.count(JobState.PENDING) == 2

    def test_fifo_order(self, scheduler, clock):
        first = scheduler.submit("alice", "first", 600)
        clock.advance(1)
        second = scheduler.submit("bob", "second", 600)
        clock.advance(1)
        third = scheduler.submit("carol", "third", 600)
        scheduler.tick()
        assert scheduler.get(first.job_id).state is JobState.RUNNING
        assert scheduler.get(second.job_id).state is JobState.RUNNING
        assert scheduler.get(third.job_id).state is JobState.PENDING

    def test_cancel(self, scheduler):
        job = scheduler.submit("alice", "sim", 3600)
        scheduler.cancel(job.job_id)
        assert job.state is JobState.CANCELLED

    def test_failure_probability(self, clock):
        scheduler = BatchScheduler(clock=clock, nodes=100, rng=random.Random(2))
        jobs = [
            scheduler.submit("alice", f"j{i}", 60, fail_probability=0.5)
            for i in range(100)
        ]
        scheduler.run_until_idle(step=60)
        failed = sum(1 for j in jobs if j.state is JobState.FAILED)
        assert 25 <= failed <= 75

    def test_unknown_job(self, scheduler):
        with pytest.raises(NotFoundError):
            scheduler.get("job-999999")

    def test_zero_nodes_rejected(self, clock):
        with pytest.raises(ValidationError):
            BatchScheduler(clock=clock, nodes=0)

    def test_run_until_idle(self, scheduler):
        for i in range(5):
            scheduler.submit("alice", f"j{i}", 600)
        scheduler.run_until_idle(step=60)
        assert scheduler.states() == {"completed": 5}


class TestDependencies:
    def test_afterok_waits(self, scheduler, clock):
        first = scheduler.submit("alice", "stage1", 600)
        second = scheduler.submit("alice", "stage2", 600, depends_on=[first.job_id])
        scheduler.tick()
        assert second.state is JobState.PENDING
        clock.advance(600)
        scheduler.tick()  # stage1 completes; stage2 eligible
        scheduler.tick()
        assert second.state is JobState.RUNNING

    def test_chain_of_dependencies(self, scheduler):
        """The paper's mitigation: a whole campaign submitted up front,
        no interactive decisions (= no SSH logins) in between."""
        previous = None
        jobs = []
        for i in range(6):
            job = scheduler.submit(
                "alice", f"stage{i}", 600,
                depends_on=[previous.job_id] if previous else None,
            )
            jobs.append(job)
            previous = job
        scheduler.run_until_idle(step=60)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # Stages ran strictly in order.
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.started_at >= earlier.finished_at

    def test_failed_dependency_cancels(self, scheduler, clock):
        first = scheduler.submit("alice", "stage1", 600, fail_probability=1.0)
        second = scheduler.submit("alice", "stage2", 600, depends_on=[first.job_id])
        scheduler.run_until_idle(step=60)
        assert first.state is JobState.FAILED
        assert second.state is JobState.CANCELLED

    def test_missing_dependency_rejected(self, scheduler):
        with pytest.raises(NotFoundError):
            scheduler.submit("alice", "x", 60, depends_on=["job-424242"])


class TestMailEvents:
    def test_end_mail(self, scheduler, clock):
        scheduler.submit(
            "alice", "sim", 600,
            mail_events={MailEvent.END}, mail_to="alice@utexas.edu",
        )
        scheduler.run_until_idle(step=60)
        inbox = scheduler.mailer.inbox("alice@utexas.edu")
        assert len(inbox) == 1
        assert "END" in inbox[0].subject

    def test_fail_mail(self, scheduler):
        scheduler.submit(
            "alice", "sim", 600, fail_probability=1.0,
            mail_events={MailEvent.FAIL, MailEvent.END}, mail_to="alice@utexas.edu",
        )
        scheduler.run_until_idle(step=60)
        inbox = scheduler.mailer.inbox("alice@utexas.edu")
        assert len(inbox) == 1
        assert "FAIL" in inbox[0].subject

    def test_begin_mail(self, scheduler):
        scheduler.submit(
            "alice", "sim", 600,
            mail_events={MailEvent.BEGIN}, mail_to="alice@utexas.edu",
        )
        scheduler.tick()
        assert "BEGIN" in scheduler.mailer.latest("alice@utexas.edu").subject

    def test_no_mail_without_subscription(self, scheduler):
        scheduler.submit("alice", "sim", 600, mail_to="alice@utexas.edu")
        scheduler.run_until_idle(step=60)
        assert scheduler.mailer.inbox("alice@utexas.edu") == []


class TestPollingVsMail:
    def test_mail_eliminates_polling_traffic(self, scheduler, clock):
        """The Section 5 comparison: a remote cron polling squeue every
        5 minutes vs --mail-type=END.  Count the status queries."""
        scheduler.submit(
            "alice", "longsim", wall_seconds=6 * 3600,
            mail_events={MailEvent.END}, mail_to="alice@utexas.edu",
        )
        polls = 0
        while scheduler.squeue("alice"):
            scheduler.tick()
            polls += 1  # the cron job's SSH login + squeue
            clock.advance(300)
        # Mail user: zero polls needed; the poller burned dozens of logins.
        assert polls >= 60
        assert scheduler.mailer.latest("alice@utexas.edu") is not None
        assert scheduler.mails_sent == 1
