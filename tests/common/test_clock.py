"""Clock behaviour: monotonicity, ISO construction, date parsing."""

import pytest

from repro.common.clock import VirtualClock, WallClock, parse_date


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(100.0).now() == 100.0

    def test_advance_moves_forward(self):
        clock = VirtualClock(10.0)
        assert clock.advance(5.0) == 15.0
        assert clock.now() == 15.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_set_rejects_backwards(self):
        clock = VirtualClock(100.0)
        with pytest.raises(ValueError):
            clock.set(99.0)

    def test_set_same_time_allowed(self):
        clock = VirtualClock(100.0)
        assert clock.set(100.0) == 100.0

    def test_at_iso_string(self):
        clock = VirtualClock.at("2016-10-04T00:00:00")
        assert clock.today().year == 2016
        assert clock.today().month == 10
        assert clock.today().day == 4

    def test_at_assumes_utc(self):
        a = VirtualClock.at("2016-10-04T00:00:00")
        b = VirtualClock.at("2016-10-04T00:00:00+00:00")
        assert a.now() == b.now()

    def test_today_is_aware(self):
        assert VirtualClock(0.0).today().tzinfo is not None


class TestSystemClock:
    def test_now_progresses(self):
        clock = WallClock()
        first = clock.now()
        assert clock.now() >= first


class TestParseDate:
    def test_plain_date(self):
        d = parse_date("2016-09-27")
        assert (d.year, d.month, d.day) == (2016, 9, 27)
        assert d.tzinfo is not None

    def test_full_iso(self):
        d = parse_date("2016-09-27T12:30:00")
        assert d.hour == 12

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            parse_date("not-a-date")
