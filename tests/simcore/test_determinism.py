"""Determinism guarantees: derived seeds, stream isolation, log digests."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.simcore import (
    EventLog,
    EventScheduler,
    RngStreams,
    VirtualClock,
    canonical_line,
    derive_seed,
)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "radius", 1) == derive_seed(7, "radius", 1)

    def test_distinct_actors_distinct_seeds(self):
        seeds = {
            derive_seed(7, actor, index)
            for actor in ("radius", "sms", "storage")
            for index in range(10)
        }
        assert len(seeds) == 30

    def test_root_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestRngStreams:
    def test_stream_is_cached(self):
        streams = RngStreams(3)
        assert streams.stream("a") is streams.stream("a")
        assert len(streams) == 1

    def test_numpy_generator_replays(self):
        streams = RngStreams(3)
        a = streams.numpy_generator("day", 4).random(8)
        b = streams.numpy_generator("day", 4).random(8)
        assert (a == b).all()

    def test_numpy_generators_independent_per_actor(self):
        streams = RngStreams(3)
        a = streams.numpy_generator("day", 0).random(8)
        b = streams.numpy_generator("day", 1).random(8)
        assert (a != b).any()


class TestEventLogDigest:
    def test_canonical_line_is_key_sorted_and_compact(self):
        assert canonical_line({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        )
    )
    def test_canonical_line_is_json_dumps_byte_for_byte(self, value):
        reference = json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert canonical_line(value) == reference

    def test_same_events_same_digest(self):
        logs = []
        for _ in range(2):
            log = EventLog()
            log.append("start", users=10)
            log.append("stop", users=9)
            logs.append(log.digest())
        assert logs[0] == logs[1]

    def test_field_order_does_not_matter(self):
        a = EventLog()
        a.append("x", one=1, two=2)
        b = EventLog()
        b.append("x", two=2, one=1)
        assert a.digest() == b.digest()

    def test_any_difference_changes_digest(self):
        a = EventLog()
        a.append("x", value=1)
        b = EventLog()
        b.append("x", value=2)
        assert a.digest() != b.digest()

    def test_clock_bound_log_stamps_relative_time(self):
        clock = VirtualClock(500.0)
        log = EventLog(clock=clock, epoch=500.0)
        clock.advance(12.0)
        event = log.append("tick")
        assert event["t"] == 12.0


class TestSchedulerDeterminism:
    @staticmethod
    def _run(seed, until):
        scheduler = EventScheduler(clock=VirtualClock(0.0), seed=seed)
        log = EventLog(clock=scheduler.clock)

        def work(actor):
            log.append("work", actor=actor, draw=scheduler.rng(actor).random())

        for i in range(20):
            scheduler.schedule(i * 3.0, work, f"actor{i % 4}")
        for stop in until:
            scheduler.run_until(stop)
        return log.digest()

    def test_same_seed_identical_digest_across_runs(self):
        assert self._run(11, [60.0]) == self._run(11, [60.0])

    def test_resumed_run_matches_continuous_run(self):
        assert self._run(11, [60.0]) == self._run(11, [25.0, 60.0])
        assert self._run(11, [60.0]) == self._run(11, [10.0, 30.0, 60.0])

    def test_different_seed_different_digest(self):
        assert self._run(11, [60.0]) != self._run(12, [60.0])
