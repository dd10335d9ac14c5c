"""Token-bucket admission control: burst, refill, per-source isolation."""

import pytest

from repro.common.clock import VirtualClock
from repro.policy import RateLimitConfig, TokenBucketLimiter


@pytest.fixture
def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


@pytest.fixture
def limiter(clock):
    return TokenBucketLimiter(RateLimitConfig(rate=2.0, burst=4.0), clock=clock)


class TestConfig:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimitConfig(rate=0.0)

    def test_burst_must_cover_one_request(self):
        with pytest.raises(ValueError):
            RateLimitConfig(burst=0.5)


class TestBucket:
    def test_burst_then_refusal(self, limiter):
        source = "198.51.100.7"
        assert all(limiter.allow(source) for _ in range(4))
        assert not limiter.allow(source)
        assert limiter.throttled_total == 1

    def test_refill_restores_admission(self, limiter, clock):
        source = "198.51.100.7"
        for _ in range(4):
            limiter.allow(source)
        assert not limiter.allow(source)
        clock.advance(1.0)  # rate=2/s -> 2 tokens back
        assert limiter.allow(source)
        assert limiter.allow(source)
        assert not limiter.allow(source)

    def test_refusals_do_not_drain(self, limiter, clock):
        source = "203.0.113.5"
        for _ in range(4):
            limiter.allow(source)
        for _ in range(50):  # hammering while empty must not dig a hole
            assert not limiter.allow(source)
        clock.advance(0.5)  # exactly one token refilled
        assert limiter.allow(source)
        assert not limiter.allow(source)

    def test_refill_caps_at_burst(self, limiter, clock):
        source = "198.51.100.7"
        limiter.allow(source)
        clock.advance(3600.0)
        assert limiter.tokens_available(source) == 4.0

    def test_sources_are_independent(self, limiter):
        for _ in range(4):
            assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")

    def test_unseen_source_starts_full(self, limiter):
        assert limiter.tokens_available("never-seen") == 4.0

    def test_snapshot(self, limiter):
        for _ in range(5):
            limiter.allow("a")
        limiter.allow("b")
        assert limiter.snapshot() == {
            "rate": 2.0,
            "burst": 4.0,
            "sources_tracked": 2,
            "throttled_total": 1,
        }


class TestVirtualClockConsistency:
    """Regression: a limiter must refill on the clock its deployment runs
    on, never fall back to a second wall-clock read mid-simulation."""

    def test_clock_injected_flag(self, clock):
        assert TokenBucketLimiter(RateLimitConfig(), clock=clock).clock_injected
        assert not TokenBucketLimiter(RateLimitConfig()).clock_injected

    def test_bind_clock_adopts_virtual_time(self, clock):
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=2.0))
        limiter.bind_clock(clock)
        assert limiter.clock_injected
        source = "198.51.100.7"
        assert limiter.allow(source)
        assert limiter.allow(source)
        assert not limiter.allow(source)
        # The wall clock barely moved; only virtual time may refill.
        clock.advance(1.0)
        assert limiter.allow(source)
        assert not limiter.allow(source)

    def test_explicit_now_overrides_clock_read(self, clock):
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=1.0), clock=clock)
        start = clock.now()
        assert limiter.allow("s", now=start)
        assert not limiter.allow("s", now=start)
        # The caller's timestamp drives refill, not a fresh clock read.
        assert limiter.allow("s", now=start + 1.0)
        assert limiter.tokens_available("s", now=start + 1.0) == 0.0
        assert limiter.tokens_available("s", now=start + 2.0) == 1.0

    def test_cost_parameter_drains_multiple_tokens(self, clock):
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=4.0), clock=clock)
        assert limiter.allow("s", cost=3.0)
        assert not limiter.allow("s", cost=3.0)
        assert limiter.allow("s", cost=1.0)

    def test_stale_now_never_refunds(self, clock):
        # A caller handing in an older timestamp (clock already advanced by
        # a parallel path) must not make tokens reappear.
        limiter = TokenBucketLimiter(RateLimitConfig(rate=1.0, burst=1.0), clock=clock)
        start = clock.now()
        assert limiter.allow("s", now=start + 10.0)
        assert not limiter.allow("s", now=start)
