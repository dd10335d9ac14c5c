"""The Section 3.4 storage topology: batch transfers without a second factor.

"Remote storage systems are configured to accept SSH traffic from all HPC
systems within the internal network.  This allows for batch transfer of
files to remote storage systems from shared file systems attached to
either the login or compute nodes ... as their jobs run without their
presence."
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.ssh import SSHClient


@pytest.fixture
def center():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1))
    center.create_user("alice", password="pw")
    return center


class TestStorageTopology:
    def test_compute_to_storage_exempt(self, center):
        stampede = center.add_system("stampede", mode="full")
        ranch = center.add_storage_system("ranch")
        # A batch job on a stampede compute node pushes to the archive.
        compute_node = SSHClient(f"{stampede.ip_prefix}.200")
        result, _ = compute_node.connect(
            ranch.login_node(), "alice", password="pw", tty=False
        )
        assert result.success
        assert result.session_items.get("mfa_exempt")

    def test_all_systems_covered(self, center):
        stampede = center.add_system("stampede", mode="full")
        wrangler = center.add_system("wrangler", mode="full")
        ranch = center.add_storage_system("ranch")
        for system in (stampede, wrangler):
            client = SSHClient(f"{system.ip_prefix}.42")
            result, _ = client.connect(ranch.login_node(), "alice",
                                       password="pw", tty=False)
            assert result.success, system.name

    def test_later_systems_added_to_storage_acl(self, center):
        ranch = center.add_storage_system("ranch")
        frontera = center.add_system("frontera", mode="full")  # added after
        client = SSHClient(f"{frontera.ip_prefix}.7")
        result, _ = client.connect(ranch.login_node(), "alice",
                                   password="pw", tty=False)
        assert result.success

    def test_external_access_to_storage_still_needs_mfa(self, center):
        center.add_system("stampede", mode="full")
        ranch = center.add_storage_system("ranch")
        outsider = SSHClient("198.51.100.7")
        result, _ = outsider.connect(ranch.login_node(), "alice",
                                     password="pw", token="000000")
        assert not result.success

    def test_compute_to_compute_not_exempt_across_systems(self, center):
        """The exemption is *into storage*, not between compute systems —
        a stampede node hitting wrangler still needs MFA."""
        stampede = center.add_system("stampede", mode="full")
        wrangler = center.add_system("wrangler", mode="full")
        client = SSHClient(f"{stampede.ip_prefix}.200")
        result, _ = client.connect(wrangler.login_node(), "alice",
                                   password="pw", token="000000")
        assert not result.success
