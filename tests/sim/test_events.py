"""The rollout's timeline on the discrete-event core: the ordering and
clock-advancing guarantees the scenario leans on, held on the
:class:`~repro.simcore.EventScheduler` it schedules onto, and the daily
ticks ``RolloutSimulation.run`` lays down (``repro.sim.events`` is gone;
general scheduler semantics live in ``tests/simcore/test_scheduler.py``)."""

import pytest

from repro.common.clock import VirtualClock
from repro.sim import RolloutConfig, RolloutSimulation
from repro.simcore import EventScheduler


@pytest.fixture
def queue():
    return EventScheduler(clock=VirtualClock(0.0))


class TestScheduling:
    def test_events_fire_in_time_order(self, queue):
        fired = []
        queue.schedule_at(30.0, lambda: fired.append("b"))
        queue.schedule_at(10.0, lambda: fired.append("a"))
        queue.schedule_at(20.0, lambda: fired.append("m"))
        queue.run_until(100.0)
        assert fired == ["a", "m", "b"]

    def test_same_time_fifo(self, queue):
        fired = []
        for tag in "abc":
            queue.schedule_at(10.0, lambda t=tag: fired.append(t))
        queue.run_until(100.0)
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, queue):
        times = []
        queue.schedule_at(42.0, lambda: times.append(queue.clock.now()))
        queue.run_until(100.0)
        assert times == [42.0]
        assert queue.clock.now() == 100.0

    def test_past_scheduling_rejected(self, queue):
        queue.clock.advance(50)
        with pytest.raises(ValueError):
            queue.schedule_at(10.0, lambda: None)

    def test_schedule_in(self, queue):
        queue.clock.advance(10)
        fired = []
        queue.schedule(5.0, lambda: fired.append(queue.clock.now()))
        queue.run_until(100.0)
        assert fired == [15.0]

    def test_run_until_leaves_future_events(self, queue):
        fired = []
        queue.schedule_at(10.0, lambda: fired.append(1))
        queue.schedule_at(200.0, lambda: fired.append(2))
        assert queue.run_until(100.0) == 1
        assert fired == [1]
        assert len(queue) == 1
        queue.run_until(300.0)
        assert fired == [1, 2]

    def test_events_may_schedule_events(self, queue):
        fired = []

        def first():
            fired.append("first")
            queue.schedule(1.0, lambda: fired.append("second"))

        queue.schedule_at(10.0, first)
        queue.run_until(100.0)
        assert fired == ["first", "second"]


class TestDaily:
    """``RolloutSimulation.run``: one tick per simulated day."""

    @pytest.fixture
    def ticks(self, monkeypatch):
        seen = []
        sim = RolloutSimulation(RolloutConfig(population_size=50, seed=3))
        start = sim.clock.now()
        monkeypatch.setattr(
            sim, "_day_tick", lambda day: seen.append((day, sim.clock.now() - start))
        )
        sim.run()
        assert sim.clock.now() - start == sim.config.days * 86400.0
        return sim, seen

    def test_daily_tick_indices(self, ticks):
        sim, seen = ticks
        assert [day for day, _ in seen] == list(range(sim.config.days))

    def test_daily_spacing(self, ticks):
        _, seen = ticks
        assert [offset for _, offset in seen[:3]] == [0.0, 86400.0, 172800.0]
        assert all(offset == day * 86400.0 for day, offset in seen)
