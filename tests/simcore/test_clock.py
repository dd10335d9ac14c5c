"""The redesigned time seam: Clock protocol, Deadline handles, sleep."""

import math
import time

import pytest

from repro.common.clock import Clock, VirtualClock, WallClock


class TestAliases:
    def test_both_implement_the_protocol(self):
        assert isinstance(WallClock(), Clock)
        assert isinstance(VirtualClock(), Clock)


class TestVirtualSleep:
    def test_sleep_advances_instantly(self):
        clock = VirtualClock(100.0)
        began = time.time()
        clock.sleep(3600.0)
        assert clock.now() == 3700.0
        assert time.time() - began < 1.0  # a virtual hour costs no wall time

    def test_sleep_zero_and_negative_are_noops(self):
        clock = VirtualClock(100.0)
        clock.sleep(0.0)
        clock.sleep(-5.0)
        assert clock.now() == 100.0


class TestWallClock:
    def test_now_tracks_time(self):
        assert abs(WallClock().now() - time.time()) < 1.0

    def test_sleep_negative_is_noop(self):
        WallClock().sleep(-1.0)  # must not raise (time.sleep would)


class TestDeadline:
    def test_bounded_deadline_expires_when_reached(self):
        clock = VirtualClock(100.0)
        deadline = clock.deadline(5.0)
        assert deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() == 5.0
        clock.advance(5.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_remaining_never_negative(self):
        clock = VirtualClock(100.0)
        deadline = clock.deadline(1.0)
        clock.advance(10.0)
        assert deadline.remaining() == 0.0

    def test_none_budget_never_expires(self):
        clock = VirtualClock(100.0)
        deadline = clock.deadline(None)
        clock.advance(10.0**9)
        assert not deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() == math.inf

    def test_nonpositive_budget_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.deadline(0.0)
        with pytest.raises(ValueError):
            clock.deadline(-1.0)

    def test_deadline_reads_live_clock(self):
        # The handle shares the clock, not a snapshot of it.
        clock = VirtualClock(0.0)
        deadline = clock.deadline(10.0)
        clock.sleep(4.0)
        assert deadline.remaining() == 6.0
