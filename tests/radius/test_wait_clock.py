"""Wait-clock injection: how RADIUS waits are charged to simulated time.

Pass ``wait_clock=`` to charge timeout/backoff waits to a clock, omit it
for free waits.
"""

import random
import warnings

from repro.common.clock import VirtualClock
from repro.radius.client import RADIUSClient
from repro.radius.transport import UDPFabric


def make_client(**kwargs) -> RADIUSClient:
    fabric = UDPFabric()
    servers = ["10.0.0.10:1812"]
    fabric.set_down(servers[0])  # every attempt times out
    kwargs.setdefault("rng", random.Random(5))
    return RADIUSClient(fabric, servers, b"secret", source="10.1.1.5", **kwargs)


class TestWaitClockInjection:
    def test_injected_wait_clock_charges_waits(self):
        clock = VirtualClock(1000.0)
        client = make_client(clock=clock, wait_clock=clock)
        client.authenticate("user", "123456")
        # Three timeouts plus two backoff waits all landed on the clock.
        assert clock.now() > 1000.0

    def test_no_wait_clock_means_free_waits(self):
        clock = VirtualClock(1000.0)
        client = make_client(clock=clock)
        client.authenticate("user", "123456")
        assert clock.now() == 1000.0

    def test_without_any_clock_private_virtual_time_still_moves(self):
        client = make_client()
        before = client._clock.now()
        client.authenticate("user", "123456")
        assert client._clock.now() > before

    def test_deadline_budget_binds_under_wait_clock(self):
        clock = VirtualClock(0.0)
        client = make_client(
            clock=clock,
            wait_clock=clock,
            deadline_budget=2.0,
        )
        response = client.authenticate("user", "123456")
        assert "deadline" in response.message
        # The budget bounds simulated spend to roughly the budget plus the
        # last wait that straddled it.
        assert clock.now() < 10.0


class TestSimulateWaitsShim:
    """The old ``simulate_waits`` switch is gone (``wait_clock=`` replaced
    it); what stays pinned is that building a client warns about nothing."""

    def test_modern_path_emits_no_warning(self):
        clock = VirtualClock(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_client(clock=clock, wait_clock=clock)
