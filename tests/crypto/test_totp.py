"""TOTP: RFC 6238 vectors, drift window, replay nullification, resync."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.crypto.totp import (
    DEFAULT_DRIFT,
    TOTPGenerator,
    TOTPValidator,
    time_step,
    totp_at,
)

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

    def test_seconds_remaining(self):
        clock = VirtualClock(1_000_010)  # 20s into the step at 999_990
        gen = TOTPGenerator(secret=SECRET, clock=clock)
        assert gen.seconds_remaining() == pytest.approx(10.0)


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
