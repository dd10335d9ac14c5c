"""COST — the build-vs-buy economics of Sections 1-3.

Reproduces the argument that per-user commercial subscriptions become
"cost prohibitive ... at the scales many SPs need": prints the annual-cost
sweep, the crossover point, and the Twilio/hard-token unit economics.
"""

import random

import pytest

from repro.analysis.cost import CommercialVendor, CostModel, InHouseCosts
from repro.common.clock import VirtualClock
from repro.otpserver.sms_gateway import SMSGateway
from repro.otpserver.tokens import HARD_TOKEN_UNIT_COST, HARD_TOKEN_USER_FEE


class TestCostSweep:
    def test_print_sweep(self):
        model = CostModel()
        print("\n=== Cost model: annual cost vs user-base size ($/yr) ===")
        print(f"    {'users':>8} {'commercial':>12} {'in-house':>10} {'winner':>10}")
        for users, commercial, in_house in model.sweep(
            [100, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000]
        ):
            winner = "in-house" if in_house < commercial else "commercial"
            print(f"    {users:>8} {commercial:>12,.0f} {in_house:>10,.0f} {winner:>10}")
        crossover = model.crossover_users()
        print(f"    crossover at ~{crossover:,} users (paper scale: >10,000)")

    def test_in_house_wins_at_paper_scale(self):
        model = CostModel()
        costs = model.annual(10_000)
        assert costs["in_house"] < costs["commercial"]
        # And by a large factor, which is what made it worth nine months.
        assert costs["commercial"] / costs["in_house"] > 2

    def test_crossover_below_paper_scale(self):
        assert CostModel().crossover_users() < 10_000

    def test_commercial_reasonable_for_small_shops(self):
        costs = CostModel().annual(200)
        assert costs["commercial"] < costs["in_house"]

    def test_bench_sweep(self, benchmark):
        model = CostModel()
        rows = benchmark(lambda: model.sweep(list(range(100, 50_000, 500))))
        assert len(rows) == 100


class TestTwilioEconomics:
    def test_sms_costs_at_deployment_scale(self):
        """40.22% of 10k users x ~12 messages/month at $0.0075 each."""
        model = InHouseCosts()
        annual = model.annual_cost(10_000) - model.annual_cost(0)
        print(f"\n    SMS-driven variable cost at 10k users: ${annual:,.0f}/yr")
        # Variable cost stays in the low thousands — the point of the $1 +
        # $0.0075 pricing versus per-user vendor seats.
        assert annual < 10_000

    def test_gateway_accounting_matches_pricing(self):
        clock = VirtualClock(0.0)
        gateway = SMSGateway(clock, rng=random.Random(1))
        for _ in range(1000):
            gateway.send("5125551234", "code")
        gateway.bill_month()
        assert gateway.total_cost() == pytest.approx(1.0 + 1000 * 0.0075)

    def test_bench_sms_send_accounting(self, benchmark):
        clock = VirtualClock(0.0)
        gateway = SMSGateway(clock, rng=random.Random(2))
        message = benchmark(lambda: gateway.send("5125551234", "code 123456"))
        assert message.cost == pytest.approx(0.0075)


class TestHardTokenEconomics:
    def test_user_fee_covers_unit_cost(self):
        """$25 "to help cover the cost of the device, shipping and
        handling, as well as staff time"."""
        assert HARD_TOKEN_USER_FEE > HARD_TOKEN_UNIT_COST

    def test_vendor_sensitivity(self):
        """Cheaper vendors push the crossover out; pricier pull it in."""
        expensive = CostModel(vendor=CommercialVendor(per_user_per_month=6.0))
        cheap = CostModel(vendor=CommercialVendor(per_user_per_month=1.0))
        assert expensive.crossover_users() < CostModel().crossover_users()
        assert cheap.crossover_users() > CostModel().crossover_users()
