"""One telemetry-default idiom: every constructor that takes ``telemetry=``
resolves it with ``resolve_registry``, so ``True`` means a fresh enabled
registry on the component's clock — ``OTPServer(telemetry=True)`` and
``SMSGateway(..., telemetry=True)`` used to raise ``AttributeError: 'bool'
object has no attribute 'tracer'``."""

import random

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver import OTPServer
from repro.otpserver.sms_gateway import SMSGateway
from repro.radius.client import RADIUSClient
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.ssh import SSHClient
from repro.ssh.daemon import SSHDaemon
from repro.telemetry import Registry

SECRET = b"testing123"


def clock():
    return VirtualClock.at("2016-10-05T09:00:00")


def _enabled(component, time) -> Registry:
    registry = component.telemetry
    assert isinstance(registry, Registry) and registry.enabled
    assert registry.clock is time
    return registry


def test_otp_server():
    time = clock()
    otp = OTPServer(clock=time, rng=random.Random(1), telemetry=True)
    otp.enroll_static("alice", "424242")
    assert otp.validate("alice", "424242").ok
    registry = _enabled(otp, time)
    assert registry.counter("otp_validate_total", "").value(status="ok") == 1
    # The gateway, storage and pipeline it builds share the one registry.
    assert otp.sms.telemetry is registry


def test_sms_gateway():
    time = clock()
    gateway = SMSGateway(time, rng=random.Random(1), telemetry=True)
    gateway.send("5125551234", "your code is 424242")
    registry = _enabled(gateway, time)
    assert registry.histogram("sms_delivery_delay_seconds", "").count() == 1
    assert registry.tracer().last_trace().name == "sms.send"


def test_radius_client_and_server():
    time = clock()
    fabric = UDPFabric(rng=random.Random(1))
    otp = OTPServer(clock=time, rng=random.Random(2))
    otp.enroll_static("grace", "424242")
    server = RADIUSServer("10.0.0.10:1812", fabric, otp, telemetry=True)
    server.add_client("10.", SECRET)
    client = RADIUSClient(
        fabric, ["10.0.0.10:1812"], SECRET, "10.1.1.5",
        rng=random.Random(3), telemetry=True, clock=time,
    )  # fmt: skip
    assert client.authenticate("grace", "424242").ok
    client_registry = _enabled(client, time)
    assert client_registry.tracer().last_trace().name == "radius.client.authenticate"
    # No clock of its own: the server's registry reads wall time.
    assert server.telemetry.enabled and server.telemetry is not client_registry
    assert server.telemetry.tracer().last_trace().name == "radius.server.handle"


def test_ssh_daemon():
    time = clock()
    center = MFACenter(clock=time, rng=random.Random(42))
    system = center.add_system("stampede", mode="full")
    center.create_user("demo", password="demo-password")
    _, secret = center.pair_soft("demo")
    node = system.login_node()
    daemon = SSHDaemon(
        "login9.stampede", "10.0.0.99", center.identity, node.pam,
        clock=time, rng=random.Random(4), telemetry=True,
    )  # fmt: skip
    result, _ = SSHClient(source_ip="198.51.100.7").connect(
        daemon, "demo", password="demo-password",
        token=TOTPGenerator(secret=secret, clock=time).current_code,
    )  # fmt: skip
    assert result.success
    registry = _enabled(daemon, time)
    assert registry.tracer().last_trace().name == "ssh.connect"
    assert registry.histogram("ssh_password_attempts", "").count() == 1
