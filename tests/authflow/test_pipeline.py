"""The staged validate pipeline: locks, threads, policy hooks, telemetry."""

import random
import sys
import threading

import pytest

from repro.authflow import (
    DEFAULT_STRIPES,
    AuthPipeline,
    ConcurrencyConfig,
    StripedLockSet,
    default_stages,
)
from repro.common.clock import VirtualClock
from repro.common.results import ValidateResult
from repro.otpserver import OTPServer, OTPServerConfig, ValidateStatus
from repro.policy import EnforcementLadder, PolicyEngine
from repro.telemetry import Registry


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def make_server(clock, **kwargs):
    kwargs.setdefault("rng", random.Random(11))
    return OTPServer(clock=clock, **kwargs)


class TestStripedLocks:
    def test_same_key_same_lock(self):
        locks = StripedLockSet(8)
        assert locks.lock_for("alice") is locks.lock_for("alice")
        assert locks.stripe_for("alice") == locks.stripe_for("alice")

    def test_keys_spread_over_stripes(self):
        locks = StripedLockSet(16)
        stripes = {locks.stripe_for(f"user{i}") for i in range(200)}
        assert len(stripes) > 8

    def test_stripe_count_validation(self):
        with pytest.raises(ValueError):
            StripedLockSet(0)

    def test_concurrency_config_validation(self):
        with pytest.raises(ValueError):
            ConcurrencyConfig(lock_stripes=0)


class TestPipelineWiring:
    def test_server_exposes_pipeline_with_default_stripes(self, clock):
        server = make_server(clock)
        assert isinstance(server.pipeline, AuthPipeline)
        assert server.pipeline.locks.stripes == DEFAULT_STRIPES

    def test_stage_order(self, clock):
        server = make_server(clock)
        names = [stage.name for stage in default_stages(server, server.policy)]
        assert names == [
            "resolve_identity",
            "evaluate_policy",
            "replay_guard",
            "dispatch",
            "apply_outcome",
            "audit",
        ]

    def test_custom_stripe_count(self, clock):
        server = make_server(clock, concurrency=ConcurrencyConfig(lock_stripes=4))
        assert server.pipeline.locks.stripes == 4

    def test_policy_snapshot_includes_concurrency(self, clock):
        server = make_server(clock, concurrency=ConcurrencyConfig(lock_stripes=4))
        snap = server.status("policy")
        assert snap["concurrency"] == {"lock_stripes": 4}
        assert snap["lockout"]["threshold"] == 20


class TestStageTelemetry:
    def test_per_stage_histogram_and_decision_counter(self, clock):
        telemetry = Registry()
        server = make_server(clock, telemetry=telemetry)
        server.enroll_static("alice", "424242")
        assert server.validate("alice", "424242").ok
        server.validate("alice", "000000")

        histogram = telemetry.histogram("authflow_stage_seconds", "")
        for stage in ("resolve_identity", "evaluate_policy", "replay_guard",
                      "dispatch", "apply_outcome", "audit"):
            assert histogram.count(stage=stage) == 2, stage

        decisions = telemetry.counter("otp_validate_total", "")
        assert decisions.value(status="ok") == 1
        assert decisions.value(status="reject") == 1

    def test_policy_decisions_counted(self, clock):
        telemetry = Registry()
        server = make_server(clock, telemetry=telemetry)
        server.enroll_static("alice", "424242")
        server.validate("alice", "424242")
        counter = telemetry.counter("policy_decisions_total", "")
        assert counter.value(action="challenge") == 1


class TestStageClock:
    """One clock read per stage boundary: a stage's end is the next one's
    start, and a skipped stage reads nothing."""

    class _Stage:
        def __init__(self, name, clock, seconds, finish=False, terminal=False):
            self.name, self.terminal = name, terminal
            self._clock, self._seconds, self._finish = clock, seconds, finish

        def run(self, ctx):
            self._clock.advance(self._seconds)
            if self._finish:
                ctx.finish(ValidateResult(ValidateStatus.REJECT, "done"))

    def test_reads_and_durations(self, clock):
        reads = []
        now = clock.now
        clock.now = lambda: reads.append(None) or now()
        telemetry = Registry()
        stages = [
            self._Stage("first", clock, 2.0),
            self._Stage("deciding", clock, 3.0, finish=True),
            self._Stage("skipped", clock, 100.0),
            self._Stage("last", clock, 5.0, terminal=True),
        ]
        pipeline = AuthPipeline(stages, telemetry=telemetry, clock=clock)
        assert pipeline.run("alice", "123456").reason == "done"
        assert len(reads) == 3 + 1  # the stages that ran, plus the first boundary
        seconds = telemetry.histogram("authflow_stage_seconds")
        assert [seconds.sum(stage=s.name) for s in stages] == [2.0, 3.0, 0.0, 5.0]
        assert [seconds.count(stage=s.name) for s in stages] == [1, 1, 0, 1]


class TestOneUpdatePerRun:
    """A run's stage times reach the histogram as one update: a scrape taken
    while caller threads run the pipeline never shows half a run."""

    def test_a_scrape_never_shows_half_a_run(self, clock):
        telemetry = Registry()
        names = ("first", "second", "third", "deciding")
        stages = [TestStageClock._Stage(name, clock, 0.0) for name in names[:-1]]
        stages.append(TestStageClock._Stage(names[-1], clock, 0.0, finish=True))
        pipeline = AuthPipeline(stages, telemetry=telemetry, clock=clock)
        seconds = telemetry.histogram("authflow_stage_seconds")
        done = threading.Event()
        torn = []

        def work(worker):
            for n in range(2500):
                pipeline.run(f"user{worker}-{n}", "123456")

        def scrape():
            while not done.is_set():
                counts = [series["count"] for series in seconds.snapshot()["series"]]
                if len(set(counts)) > 1:
                    torn.append(counts)

        workers = [threading.Thread(target=work, args=(n,)) for n in range(4)]
        scraper = threading.Thread(target=scrape)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scraper.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120.0)
        finally:
            done.set()
            scraper.join(timeout=120.0)
            sys.setswitchinterval(interval)
        assert torn == []
        assert [seconds.count(stage=name) for name in names] == [10_000] * 4


def validate_many(server, requests, threads=8):
    """Every request validated, dealt round-robin over ``threads`` caller
    threads (the pipeline owns none); results in request order."""
    results = [None] * len(requests)

    def work(offset):
        for i in range(offset, len(requests), threads):
            results[i] = server.validate(*requests[i])

    workers = [threading.Thread(target=work, args=(n,)) for n in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return results


class TestValidateMany:
    """Many validates at once from caller threads: the striped lock
    serialises one user's attempts, instruments lose no increments."""

    def test_results_positional_and_correct(self, clock):
        server = make_server(clock)
        for i in range(6):
            server.enroll_static(f"user{i}", f"{i}{i}{i}{i}{i}{i}")
        requests = [(f"user{i}", f"{i}{i}{i}{i}{i}{i}" if i % 2 == 0 else "999999")
                    for i in range(6)]
        requests.append(("ghost", "123456"))
        results = validate_many(server, requests)
        assert len(results) == 7
        for i in range(6):
            assert results[i].ok == (i % 2 == 0)
        assert results[6].status is ValidateStatus.NO_TOKEN

    def test_same_user_race_keeps_failcount_exact(self, clock):
        """Concurrent failures for one user must serialize on their stripe."""
        server = make_server(
            clock, config=OTPServerConfig(lockout_threshold=500)
        )
        server.enroll_static("alice", "424242")
        validate_many(server, [("alice", "000000")] * 80)
        (token,) = server.user_tokens("alice")
        assert token.failcount == 80

    def test_batch_with_telemetry_registry_is_thread_safe(self, clock):
        """Caller threads drive real instruments without losing increments."""
        telemetry = Registry()
        server = make_server(clock, telemetry=telemetry)
        for i in range(8):
            server.enroll_static(f"user{i}", "424242")
        requests = [(f"user{i % 8}", "424242") for i in range(64)]
        results = validate_many(server, requests)
        assert all(r.ok for r in results)
        decisions = telemetry.counter("otp_validate_total", "")
        assert decisions.value(status="ok") == 64


class TestPolicyHooks:
    def test_exempt_user_passes_without_code(self, clock):
        class GrantAll:
            def check(self, username, ip):
                return True

        policy = PolicyEngine(exemptions=GrantAll(), clock=clock)
        server = make_server(clock, policy=policy)
        server.enroll_static("alice", "424242")
        result = server.validate("alice", "000000", source="10.0.0.5")
        assert result.ok
        assert "exemption" in result.reason
        (token,) = server.user_tokens("alice")
        assert token.failcount == 0

    def test_ladder_off_allows_any_code(self, clock):
        policy = PolicyEngine(ladder=EnforcementLadder("off"), clock=clock)
        server = make_server(clock, policy=policy)
        server.enroll_static("alice", "424242")
        result = server.validate("alice", "000000")
        assert result.ok
        assert result.reason == "enforcement off"

    def test_default_policy_challenges_as_before(self, clock):
        server = make_server(clock)
        server.enroll_static("alice", "424242")
        assert not server.validate("alice", "000000").ok
        assert server.validate("alice", "424242").ok
