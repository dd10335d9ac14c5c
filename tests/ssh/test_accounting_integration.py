"""SSH daemon <-> RADIUS accounting integration."""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.radius.accounting import AccountingClient, AccountingServer
from repro.ssh import SSHClient


@pytest.fixture
def rig():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    system = center.add_system("stampede", mode="full")
    acct_server = AccountingServer(
        "10.0.0.50:1813", center.fabric, b"acct-secret", clock=clock
    )
    node = system.login_node()
    node._accounting = AccountingClient(
        center.fabric, acct_server.address, b"acct-secret", node.hostname
    )
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)

    class Rig:
        pass

    r = Rig()
    r.clock, r.center, r.node, r.device, r.acct = clock, center, node, device, acct_server
    return r


class TestSessionAccounting:
    def test_login_emits_start(self, rig):
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(rig.node, "alice", password="pw",
                                   token=rig.device.current_code)
        assert result.success
        sessions = rig.acct.sessions_for("alice")
        assert len(sessions) == 1 and sessions[0].open

    def test_disconnect_emits_stop_with_duration(self, rig):
        client = SSHClient("198.51.100.7")
        result, _ = client.connect(rig.node, "alice", password="pw",
                                   token=rig.device.current_code)
        rig.clock.advance(7200)
        rig.node.disconnect(result.connection_id)
        record = rig.acct.sessions_for("alice")[0]
        assert not record.open
        assert record.session_time == 7200

    def test_failed_login_no_accounting(self, rig):
        client = SSHClient("198.51.100.7")
        client.connect(rig.node, "alice", password="wrong", token="000000")
        assert rig.acct.sessions_for("alice") == []

    def test_session_count_accumulates(self, rig):
        client = SSHClient("198.51.100.7")
        for _ in range(5):
            rig.clock.advance(31)
            result, _ = client.connect(rig.node, "alice", password="pw",
                                       token=rig.device.current_code)
            rig.node.disconnect(result.connection_id)
        assert rig.acct.total_sessions() == 5
        assert rig.acct.open_sessions() == []
