"""TOTP: RFC 6238 vectors, drift window, replay nullification, resync."""

import cProfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import Clock, VirtualClock
from repro.crypto.hotp import hotp
from repro.crypto.totp import (
    DEFAULT_DRIFT,
    REASON_MALFORMED,
    TOTPGenerator,
    TOTPValidator,
    ValidationOutcome,
    time_step,
    totp_at,
    verify_totp,
)
from tests.crypto import reference

SECRET = b"12345678901234567890"

# RFC 6238 appendix B (SHA-1 rows, 8 digits).
RFC_VECTORS = [
    (59, "94287082"),
    (1111111109, "07081804"),
    (1111111111, "14050471"),
    (1234567890, "89005924"),
    (2000000000, "69279037"),
    (20000000000, "65353130"),
]


class TestRFCVectors:
    @pytest.mark.parametrize("timestamp,code", RFC_VECTORS)
    def test_vector(self, timestamp, code):
        assert totp_at(SECRET, timestamp, digits=8) == code


class TestTimeStep:
    def test_boundaries(self):
        assert time_step(0) == 0
        assert time_step(29.999) == 0
        assert time_step(30) == 1

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            time_step(100, step=0)


class TestGenerator:
    def test_current_code_is_six_digits(self):
        gen = TOTPGenerator(secret=SECRET, clock=VirtualClock(1_000_000))
        code = gen.current_code()
        assert len(code) == 6 and code.isdigit()

    def test_code_stable_within_step(self):
        clock = VirtualClock(1_000_010)  # 20s into the step at 999_990
        gen = TOTPGenerator(secret=SECRET, clock=clock)
        first = gen.current_code()
        clock.advance(9)
        assert gen.current_code() == first
        clock.advance(2)
        assert gen.current_code() != first

    def test_skew_shifts_code(self):
        clock = VirtualClock(1_000_000)
        on_time = TOTPGenerator(secret=SECRET, clock=clock)
        drifted = TOTPGenerator(secret=SECRET, clock=clock, skew=90.0)
        assert drifted.current_code() == on_time.code_at(1_000_090)

class TestValidator:
    def make(self, start=1_000_000.0, drift=DEFAULT_DRIFT):
        clock = VirtualClock(start)
        return clock, TOTPValidator(clock=clock, drift=drift)

    def test_exact_code_validates(self):
        clock, validator = self.make()
        outcome = validator.validate("t1", SECRET, totp_at(SECRET, clock.now()))
        assert outcome.ok and outcome.offset == 0

    def test_replay_rejected(self):
        clock, validator = self.make()
        code = totp_at(SECRET, clock.now())
        assert validator.validate("t1", SECRET, code).ok
        second = validator.validate("t1", SECRET, code)
        assert not second.ok
        assert "already used" in second.reason

    def test_replay_state_is_per_key(self):
        clock, validator = self.make()
        code = totp_at(SECRET, clock.now())
        assert validator.validate("t1", SECRET, code).ok
        assert validator.validate("t2", SECRET, code).ok

    def test_drift_within_window_accepted(self):
        clock, validator = self.make()
        # The paper's tolerance: 300 seconds of device drift.
        ahead = totp_at(SECRET, clock.now() + 299)
        outcome = validator.validate("t1", SECRET, ahead)
        assert outcome.ok and outcome.offset > 0

    def test_drift_behind_window_accepted(self):
        clock, validator = self.make()
        behind = totp_at(SECRET, clock.now() - 299)
        outcome = validator.validate("t1", SECRET, behind)
        assert outcome.ok and outcome.offset < 0

    def test_drift_beyond_window_rejected(self):
        clock, validator = self.make()
        far = totp_at(SECRET, clock.now() + 400)
        assert not validator.validate("t1", SECRET, far).ok

    def test_tight_drift_window(self):
        clock, validator = self.make(drift=30)
        ok = totp_at(SECRET, clock.now() + 30)
        bad = totp_at(SECRET, clock.now() + 90)
        assert validator.validate("t1", SECRET, ok).ok
        assert not validator.validate("t2", SECRET, bad).ok

    def test_malformed_code_rejected(self):
        _, validator = self.make()
        for bad in ("", "12345", "1234567", "12345a", "      "):
            assert not validator.validate("t1", SECRET, bad).ok

    @pytest.mark.parametrize("code", ["١٢٣٤٥٦", "１２３４５６", "۱۲۳۴۵۶"])
    def test_non_ascii_digits_are_malformed(self, code):
        # ``str.isdigit`` passes these six-digit codes; ``hmac.compare_digest``
        # would raise on them.
        assert code.isdigit()
        assert verify_totp(SECRET, code, 100, -1, 10) == (None, REASON_MALFORMED)

    def test_earlier_step_rejected_after_later_accepted(self):
        clock, validator = self.make()
        later = totp_at(SECRET, clock.now() + 60)
        earlier = totp_at(SECRET, clock.now() - 60)
        assert validator.validate("t1", SECRET, later).ok
        assert not validator.validate("t1", SECRET, earlier).ok

    def test_negative_drift_config_rejected(self):
        with pytest.raises(ValueError):
            TOTPValidator(drift=-1)

    def test_forget_clears_replay_floor(self):
        clock, validator = self.make()
        code = totp_at(SECRET, clock.now())
        assert validator.validate("t1", SECRET, code).ok
        validator.forget("t1")
        assert validator.validate("t1", SECRET, code).ok

    @given(offset=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=30)
    def test_any_step_in_window_validates(self, offset):
        clock = VirtualClock(1_000_000.0)
        validator = TOTPValidator(clock=clock)
        code = totp_at(SECRET, clock.now() + offset * 30)
        assert validator.validate(f"k{offset}", SECRET, code).ok


class TestResync:
    def test_resync_far_drifted_token(self):
        clock = VirtualClock(1_000_000.0)
        validator = TOTPValidator(clock=clock)
        # Device is 2 hours fast: far outside the validation window.
        future = clock.now() + 7200
        code1 = totp_at(SECRET, future)
        code2 = totp_at(SECRET, future + 30)
        assert not validator.validate("t1", SECRET, code1).ok
        outcome = validator.resync("t1", SECRET, code1, code2, search=500)
        assert outcome.ok and outcome.offset == 240

    def test_resync_requires_consecutive_codes(self):
        clock = VirtualClock(1_000_000.0)
        validator = TOTPValidator(clock=clock)
        code1 = totp_at(SECRET, clock.now() + 7200)
        code_wrong = totp_at(SECRET, clock.now() + 7290)  # not consecutive
        assert not validator.resync("t1", SECRET, code1, code_wrong, search=500).ok

    def test_resync_anchors_replay_floor(self):
        clock = VirtualClock(1_000_000.0)
        validator = TOTPValidator(clock=clock)
        future = clock.now() + 3000
        code1 = totp_at(SECRET, future)
        code2 = totp_at(SECRET, future + 30)
        assert validator.resync("t1", SECRET, code1, code2, search=200).ok
        # The two resync codes can no longer be used to authenticate.
        assert not validator.validate("t1", SECRET, code2).ok


class TickingClock(Clock):
    """A clock that moves one millisecond every time it is read."""

    def __init__(self, millis: int) -> None:
        self.millis = millis

    def now(self) -> float:
        self.millis += 1
        return (self.millis - 1) / 1000


class TestOneClockRead:
    def test_an_on_time_code_in_a_steps_last_millisecond_learns_no_drift(self):
        # The check starts in the last millisecond of step 999; a second
        # clock read would land in step 1000 and learn a drift of -1.
        clock = TickingClock(30 * 1000 * 1000 - 1)
        validator = TOTPValidator(clock=clock)
        code = hotp(SECRET, 999)
        assert validator.validate("t1", SECRET, code) == ValidationOutcome(True, offset=0)
        assert validator._offsets["t1"] == 0
        assert validator._last_accepted["t1"] == 999


class TestAgainstThePerStepReference:
    """The kernel-backed validator gives the per-step search's verdicts and
    leaves the same replay floor and learned offset behind, op after op."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_outcomes_and_state(self, data):
        window = data.draw(st.integers(min_value=0, max_value=10), label="window")
        drift = window * 30 + data.draw(st.integers(min_value=0, max_value=29))
        # Steps near 0 (where the window and the replay range are clipped)
        # and a realistic epoch.
        start = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=900),
                st.integers(min_value=1_400_000_000, max_value=1_500_000_000),
            ),
            label="start",
        )
        clocks = VirtualClock(start), VirtualClock(start)
        ours = TOTPValidator(clock=clocks[0], drift=drift)
        theirs = reference.TOTPValidator(clock=clocks[1], drift=drift)
        submitted = ["000000"]
        for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="ops")):
            advance = data.draw(st.integers(min_value=0, max_value=120), label="advance")
            for clock in clocks:
                clock.advance(advance)
            now = clocks[0].now()
            if data.draw(st.booleans(), label="set state"):
                # Any learned offset, and a floor anywhere from "never
                # accepted" to past the window's far edge.
                offset = data.draw(st.integers(min_value=-15, max_value=15), label="offset")
                center = time_step(now) + offset
                floor = max(-1, center + data.draw(st.integers(-15, 15), label="floor"))
                for validator in (ours, theirs):
                    validator._offsets["k"], validator._last_accepted["k"] = offset, floor
            kind = data.draw(
                st.sampled_from(["right", "wrong", "replayed", "consumed", "malformed", "resync"]),
                label="kind",
            )
            skew = data.draw(st.integers(min_value=-450, max_value=450), label="skew")
            if kind == "resync":
                code1 = totp_at(SECRET, max(0, now + skew))
                code2 = totp_at(SECRET, max(0, now + skew) + 30)
                search = data.draw(st.integers(min_value=0, max_value=40), label="search")
                outcomes = [v.resync("k", SECRET, code1, code2, search) for v in (ours, theirs)]
            else:
                if kind == "right":
                    code = totp_at(SECRET, max(0, now + skew))
                elif kind == "wrong":
                    code = f"{data.draw(st.integers(0, 999_999), label='wrong'):06d}"
                elif kind == "replayed":
                    code = data.draw(st.sampled_from(submitted), label="replayed")
                elif kind == "consumed":
                    floor = theirs._last_accepted.get("k", -1)
                    back = data.draw(st.integers(min_value=0, max_value=12), label="back")
                    code = hotp(SECRET, max(0, floor - back))
                else:
                    code = data.draw(st.sampled_from(["", "12345", "1234567", "12a456"]))
                submitted.append(code)
                outcomes = [v.validate("k", SECRET, code) for v in (ours, theirs)]
            assert outcomes[0] == outcomes[1]
            assert ours._last_accepted == theirs._last_accepted
            assert ours._offsets == theirs._offsets


def _calls(function, *args):
    """``(calls, result)``: the interpreter calls ``function(*args)`` makes,
    as cProfile counts them, and what it returned."""
    profiler = cProfile.Profile()
    result = profiler.runcall(function, *args)
    return sum(entry.callcount for entry in profiler.getstats()) - 1, result


class TestResyncCost:
    def make(self):
        clock = VirtualClock(1_000_000.0)
        return clock, TOTPValidator(clock=clock), reference.TOTPValidator(clock=clock)

    def test_a_resync_that_matches_nowhere_makes_five_times_fewer_calls(self):
        _, ours, theirs = self.make()
        # 2,001 one-shot HMACs per code at the reference; rings here.
        calls, outcome = _calls(ours.resync, "t1", SECRET, "000000", "000001")
        reference_calls, reference_outcome = _calls(
            theirs.resync, "t1", SECRET, "000000", "000001"
        )
        assert not outcome.ok and outcome == reference_outcome
        assert calls * 5 <= reference_calls

    @pytest.mark.parametrize("distance", [-700, -3, -1, 1, 2, 500, 1000])
    def test_the_rings_find_the_nearest_pair_at_any_distance(self, distance):
        clock, ours, theirs = self.make()
        at = clock.now() + 30 * distance
        codes = totp_at(SECRET, at), totp_at(SECRET, at + 30)
        outcome = ours.resync("t1", SECRET, *codes)
        assert outcome == theirs.resync("t1", SECRET, *codes)
        assert outcome.ok and outcome.offset == distance
        assert ours._offsets == theirs._offsets
        assert ours._last_accepted == theirs._last_accepted
