"""PERF — cost of the telemetry layer on the authentication path.

Two questions, one per class:

* What does a fully *instrumented* login cost next to the no-op default?
  (`test_bench_password_token_login` in test_perf_authpath.py is the
  uninstrumented twin of these benches.)
* Is the no-op default actually free?  The login path checks ``enabled``
  and makes no telemetry call when it is off, but code elsewhere may still
  call the no-op instruments; the derived assertion bounds what 100 such
  calls would cost at under 5% of a real login.
"""

from __future__ import annotations

import random
import time

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.ssh import SSHClient
from repro.telemetry import NOOP_REGISTRY

#: Generous upper bound on telemetry touchpoints per login (spans opened,
#: counters bumped, histograms observed).  A traced soft-token login opens
#: 9 spans and lands ~20 instrument calls; 100 leaves a wide margin.
OPS_PER_LOGIN = 100


def _rig(telemetry=None):
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1), telemetry=telemetry)
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    client = SSHClient("198.51.100.7")
    node = system.login_node()

    def login():
        clock.advance(31)
        result, _ = client.connect(
            node, "alice", password="pw", token=device.current_code
        )
        return result

    return center, login


class TestInstrumentedVsNoop:
    def test_bench_login_noop_registry(self, benchmark):
        _, login = _rig(telemetry=None)
        assert benchmark(login).success

    def test_bench_login_instrumented(self, benchmark):
        center, login = _rig(telemetry=True)
        assert benchmark(login).success
        assert center.telemetry.tracer().last_trace() is not None


class TestNoopOverheadBound:
    def test_noop_overhead_under_five_percent(self):
        """OPS_PER_LOGIN no-op telemetry calls must cost < 5% of a login.

        Measured as a derived bound rather than a noisy A/B timing: the
        per-call cost of the no-op instruments times a generous per-login
        call count, against the measured latency of a real (no-op
        telemetry) login.
        """
        _, login = _rig(telemetry=None)
        login()  # warm every lazy path before timing

        rounds = 30
        start = time.perf_counter()
        for _ in range(rounds):
            login()
        login_seconds = (time.perf_counter() - start) / rounds

        counter = NOOP_REGISTRY.counter("bench")
        histogram = NOOP_REGISTRY.histogram("bench_h")
        tracer = NOOP_REGISTRY.tracer()
        calls = 30_000
        start = time.perf_counter()
        for _ in range(calls // 3):
            counter.inc(result="ok")
            histogram.observe(1.0)
            with tracer.span("s", user="alice") as span:
                span.annotate("k", "v")
        noop_seconds = (time.perf_counter() - start) / calls

        overhead = OPS_PER_LOGIN * noop_seconds
        assert overhead < 0.05 * login_seconds, (
            f"no-op telemetry too expensive: {OPS_PER_LOGIN} calls "
            f"~{overhead * 1e6:.1f}us vs login {login_seconds * 1e6:.1f}us"
        )
