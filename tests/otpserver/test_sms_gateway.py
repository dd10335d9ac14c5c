"""Twilio simulation: billing, delivery timing, the stall failure mode."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import ValidationError
from repro.otpserver.sms_gateway import (
    MONTHLY_FLAT,
    PER_MESSAGE_US,
    CarrierProfile,
    SMSGateway,
    is_us_number,
)


@pytest.fixture
def clock():
    return VirtualClock(1_000_000.0)


@pytest.fixture
def gateway(clock):
    return SMSGateway(clock, rng=random.Random(1))


class TestNumbers:
    @pytest.mark.parametrize("number", ["5125551234", "15125551234", "+15125551234", "512-555-1234"])
    def test_us_numbers(self, number):
        assert is_us_number(number)

    @pytest.mark.parametrize("number", ["44123456789012", "12345", "+8613912345678"])
    def test_non_us_numbers(self, number):
        assert not is_us_number(number)


class TestBilling:
    def test_paper_rates(self):
        assert MONTHLY_FLAT == 1.00
        assert PER_MESSAGE_US == 0.0075

    def test_per_message_charge(self, gateway):
        gateway.send("5125551234", "code 123456")
        assert gateway.message_charges == pytest.approx(0.0075)

    def test_international_costs_more(self, gateway):
        gateway.send("+8613912345678", "code")
        assert gateway.message_charges > 0.0075

    def test_monthly_flat_accrues(self, gateway):
        gateway.bill_month()
        gateway.bill_month()
        gateway.send("5125551234", "x")
        assert gateway.total_cost() == pytest.approx(2.0 + 0.0075)

    def test_message_counter(self, gateway):
        for _ in range(5):
            gateway.send("5125551234", "x")
        assert gateway.messages_sent == 5


class TestDelivery:
    def test_not_delivered_immediately(self, gateway):
        gateway.send("5125551234", "code 111111")
        assert gateway.latest("5125551234") is None
        assert gateway.pending_count("5125551234") == 1

    def test_delivered_after_delay(self, gateway, clock):
        gateway.send("5125551234", "code 111111")
        clock.advance(10)
        message = gateway.latest("5125551234")
        assert message is not None and message.body == "code 111111"
        assert gateway.pending_count("5125551234") == 0

    def test_inbox_ordering(self, gateway, clock):
        gateway.send("5125551234", "first")
        clock.advance(10)
        gateway.send("5125551234", "second")
        clock.advance(10)
        inbox = gateway.inbox("5125551234")
        assert [m.body for m in inbox] == ["first", "second"]

    def test_inboxes_isolated(self, gateway, clock):
        gateway.send("5125551234", "for a")
        gateway.send("5125559999", "for b")
        clock.advance(10)
        assert gateway.latest("5125551234").body == "for a"
        assert gateway.latest("5125559999").body == "for b"

    def test_empty_number_rejected(self, gateway):
        with pytest.raises(ValidationError):
            gateway.send("", "x")


class TestCarrierStall:
    def test_stall_delays_past_code_validity(self, clock):
        """The Section 5 failure: the carrier retries and delivers the code
        in an expired state."""
        carrier = CarrierProfile(stall_probability=1.0, stall_delay=600.0)
        gateway = SMSGateway(clock, carrier=carrier, rng=random.Random(2))
        message = gateway.send("5125551234", "code 222222")
        assert message.attempts == 2  # the retry is recorded
        clock.advance(300)  # the code's validity window
        assert gateway.latest("5125551234") is None  # still in carrier limbo
        clock.advance(1000)
        assert gateway.latest("5125551234") is not None  # finally lands

    def test_stall_rate_approximately_respected(self, clock):
        carrier = CarrierProfile(stall_probability=0.2, base_delay=1.0, delay_jitter=0.0)
        gateway = SMSGateway(clock, carrier=carrier, rng=random.Random(3))
        stalls = sum(
            1 for _ in range(500) if gateway.send("5125551234", "x").attempts == 2
        )
        assert 60 <= stalls <= 140  # ~100 expected
