"""Scale test: hundreds of users through the full authentication path.

Exercises the paper's scalability claim at test-suite-friendly size:
every enrollment and login runs the complete SSH→PAM→RADIUS→OTP stack,
and the back-end state (audit, accounting of successes, LDAP) stays
consistent throughout.
"""

import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ssh import SSHClient


@pytest.fixture(scope="module")
def deployment():
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(99))
    system = center.add_system("stampede", login_nodes=4, mode="full")
    rng = random.Random(100)
    users = []
    for i in range(150):
        name = f"scale{i:03d}"
        center.create_user(name, password=f"pw-{name}")
        if i % 3 == 2:
            center.pair_sms(name, f"512555{i:04d}")
            users.append((name, "sms", None))
        else:
            _, secret = center.pair_soft(name)
            users.append((name, "soft", TOTPGenerator(secret=secret, clock=clock)))
    _ = rng

    class Deployment:
        pass

    d = Deployment()
    d.clock, d.center, d.system, d.users = clock, center, system, users
    return d


class TestScale:
    def test_every_user_can_log_in(self, deployment):
        clock = deployment.clock
        gateway = deployment.center.sms_gateway
        successes = 0
        for index, (name, kind, device) in enumerate(deployment.users):
            clock.advance(31)
            node = deployment.system.daemons[index % 4]
            client = SSHClient(f"198.51.{index % 200}.{(index % 250) + 1}")
            if kind == "soft":
                result, _ = client.connect(
                    node, name, password=f"pw-{name}", token=device.current_code
                )
            else:
                phone = f"512555{index:04d}"

                def read_sms(phone=phone):
                    clock.advance(20)
                    message = gateway.latest(phone)
                    return message.body.split()[-1] if message else "000000"

                result, _ = client.connect(
                    node, name, password=f"pw-{name}",
                    extra_answers={"token code": read_sms},
                )
            successes += bool(result.success)
        assert successes == len(deployment.users)

    def test_audit_counts_match(self, deployment):
        audit = deployment.center.otp.audit
        assert audit.success_count("validate") >= len(deployment.users)

    def test_load_spread_over_radius_farm(self, deployment):
        handled = [s.handled for s in deployment.center.radius_servers]
        assert all(h > 10 for h in handled)
        assert max(handled) < 3 * min(handled)

    def test_repeat_login_burst(self, deployment):
        """One user hammering logins (a tight retry loop) stays correct."""
        name, _, device = next(
            u for u in deployment.users if u[1] == "soft"
        )
        client = SSHClient("198.51.250.1")
        node = deployment.system.login_node()
        ok = 0
        for _ in range(50):
            deployment.clock.advance(31)
            result, _ = client.connect(
                node, name, password=f"pw-{name}", token=device.current_code
            )
            ok += bool(result.success)
        assert ok == 50

    def test_ldap_consistency_at_scale(self, deployment):
        identity = deployment.center.identity
        for name, kind, _ in deployment.users:
            assert identity.pairing_type(name).value == kind
