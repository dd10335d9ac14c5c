"""Coverage for the remaining public-API conveniences: the paper-inventory
modules' own (``repro.portal.store``), which only tests and examples drive."""

import random

from repro.common.clock import VirtualClock
from repro.portal.store import HardTokenStore
from repro.otpserver.tokens import HardTokenBatch


class TestStoreOrdersFor:
    def test_lists_user_orders(self):
        clock = VirtualClock(0.0)
        batch = HardTokenBatch(3, rng=random.Random(1))
        store = HardTokenStore(batch, clock)
        store.order("alice")
        store.order("alice", "France")
        store.order("bob")
        assert len(store.orders_for("alice")) == 2
        assert store.orders_for("carol") == []
