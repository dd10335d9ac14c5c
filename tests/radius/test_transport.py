"""In-process datagram fabric: delivery, loss, outages."""

import random

import pytest

from repro.radius.transport import UDPFabric


class TestRegistration:
    def test_request_response(self):
        fabric = UDPFabric()
        fabric.register("10.0.0.1:1812", lambda data, src: data[::-1])
        assert fabric.send_request("10.0.0.1:1812", b"abc") == b"cba"

    def test_duplicate_bind_rejected(self):
        fabric = UDPFabric()
        fabric.register("a", lambda d, s: d)
        with pytest.raises(ValueError):
            fabric.register("a", lambda d, s: d)

    def test_no_listener_times_out(self):
        fabric = UDPFabric()
        assert fabric.send_request("nowhere", b"x") is None
        assert fabric.stats.no_listener == 1

    def test_unregister(self):
        fabric = UDPFabric()
        fabric.register("a", lambda d, s: d)
        assert fabric.is_registered("a")
        fabric.unregister("a")
        assert not fabric.is_registered("a")
        assert fabric.send_request("a", b"x") is None

    def test_unregister_unknown_raises(self):
        # Symmetric with register's duplicate-bind error: releasing an
        # address that was never bound is the same class of mistake.
        fabric = UDPFabric()
        with pytest.raises(ValueError):
            fabric.unregister("never-bound")
        fabric.register("a", lambda d, s: d)
        fabric.unregister("a")
        with pytest.raises(ValueError):
            fabric.unregister("a")  # double release

    def test_bindings_show_in_the_snapshot(self):
        fabric = UDPFabric()
        fabric.register("a", lambda d, s: d)
        fabric.register("b", lambda d, s: d)
        with pytest.raises(ValueError):
            fabric.register("a", lambda d, s: d)
        fabric.unregister("a")
        with pytest.raises(ValueError):
            fabric.unregister("a")
        fabric.set_down("b")
        assert fabric.send_request("b", b"x") is None
        assert fabric.snapshot() == {
            "sent": 1, "delivered": 0, "dropped": 1, "no_listener": 0,
            "listeners": 1, "down": ["b"],
        }

    def test_source_passed_to_handler(self):
        fabric = UDPFabric()
        seen = []
        fabric.register("a", lambda d, s: seen.append(s) or b"ok")
        fabric.send_request("a", b"x", source="10.9.8.7")
        assert seen == ["10.9.8.7"]

    def test_handler_returning_none_is_timeout(self):
        fabric = UDPFabric()
        fabric.register("a", lambda d, s: None)
        assert fabric.send_request("a", b"x") is None


class TestOutages:
    def test_down_server_drops(self):
        fabric = UDPFabric()
        fabric.register("a", lambda d, s: b"ok")
        fabric.set_down("a")
        assert fabric.is_down("a")
        assert fabric.send_request("a", b"x") is None
        fabric.set_down("a", False)
        assert fabric.send_request("a", b"x") == b"ok"


class TestLoss:
    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            UDPFabric(loss_rate=1.0)
        with pytest.raises(ValueError):
            UDPFabric(loss_rate=-0.1)

    def test_loss_rate_statistics(self):
        fabric = UDPFabric(loss_rate=0.5, rng=random.Random(1))
        fabric.register("a", lambda d, s: b"ok")
        delivered = sum(
            1 for _ in range(1000) if fabric.send_request("a", b"x") is not None
        )
        # P(round trip) = 0.25; expect ~250.
        assert 180 <= delivered <= 320

    def test_stats_accounting(self):
        fabric = UDPFabric(loss_rate=0.3, rng=random.Random(2))
        fabric.register("a", lambda d, s: b"ok")
        for _ in range(100):
            fabric.send_request("a", b"x")
        assert fabric.stats.sent == 100
        assert fabric.stats.delivered + fabric.stats.dropped == 100
