"""Failover latency: what one dead RADIUS server costs a login.

Measured in *simulated* seconds (the deployment's VirtualClock injected as
the RADIUS wait clock): every unanswered attempt charges its timeout and
backoff wait to the deployment clock, and a chaos latency fault gives the
healthy path a realistic non-zero round trip.  The acceptance bar: with one of three servers down,
the health-aware client's median login latency stays within 2x the
all-healthy median — the circuit breaker ejects the dead server after the
first login pays the discovery cost, so the median never sees it again.

The blind round-robin comparison prints alongside: it re-pays the full
timeout ladder every time the rotation starts at the dead server, a third
of its logins.  That is fewer than half, so the median cannot show it, and
each mode also counts its slow logins, those over 2x the all-healthy
median.  The health-aware client pays the ladder at discovery and at each
half-open probe, and the probe interval doubles from 30 s: over the first
12 logins (31 s apart) its four ladders tie the blind rotation's four, so
the count that must favour it is taken over ``LONG_RUN`` logins.
"""

from __future__ import annotations

import random
import time
from statistics import median

from benchlib import emit_bench
from repro.chaos import ChaosEngine, FaultPlan, LatencyFault
from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.radius import client as radius_client
from repro.ssh import SSHClient
from repro.storage import TableSchema, WALEngine

LOGINS = 12
#: Logins over which the probe interval has doubled to its cap.
LONG_RUN = 48
#: Nominal per-datagram RADIUS round trip, charged by a latency fault.
NOMINAL_RTT = 0.05


def login_latencies(down_servers: int = 0, logins: int = LOGINS):
    """Per-login simulated seconds for a fresh deployment."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(3),
        radius_wait_clock=clock,
    )
    system = center.add_system("bench", login_nodes=1)
    node = system.login_node()
    center.create_user("ivan", password="pw")
    _, secret = center.pair_soft("ivan")
    device = TOTPGenerator(secret=secret, clock=clock)
    plan = FaultPlan(
        "nominal-rtt",
        "constant RADIUS round trip so the healthy median is non-zero",
        (LatencyFault(start=0, duration=10 ** 6, delay=NOMINAL_RTT, target="10.0.0."),),
    )
    ChaosEngine(plan, clock, seed=3, fabric=center.fabric)
    for i in range(down_servers):
        center.fabric.set_down(center.radius_servers[i].address)
    client = SSHClient(source_ip="198.51.100.3")
    latencies = []
    for _ in range(logins):
        begin = clock.now()
        result, _ = client.connect(node, "ivan", password="pw", token=device.current_code)
        assert result.success
        latencies.append(clock.now() - begin)
        clock.advance(31)  # fresh TOTP step per login
    return latencies


def slow_logins(latencies, healthy) -> int:
    """Logins slower than 2x the all-healthy median."""
    return sum(latency > 2 * median(healthy) for latency in latencies)


def test_one_down_median_within_2x_all_healthy(monkeypatch):
    healthy = login_latencies(down_servers=0)
    degraded = login_latencies(down_servers=1, logins=LONG_RUN)
    with monkeypatch.context() as blind_mode:
        blind_mode.setattr(radius_client, "HEALTH_AWARE", False)
        blind = login_latencies(down_servers=1, logins=LONG_RUN)
    # The first LOGINS of a long run are the short run: nothing carries over.
    aware_slow = slow_logins(degraded, healthy)
    blind_slow = slow_logins(blind, healthy)
    degraded, blind = degraded[:LOGINS], blind[:LOGINS]
    print("\n=== failover login latency (simulated seconds) ===")
    print(f"    all healthy      median={median(healthy):.3f} worst={max(healthy):.3f}")
    for mode, latencies, slow in (("aware", degraded, aware_slow), ("blind", blind, blind_slow)):
        print(
            f"    1/3 down ({mode}) median={median(latencies):.3f} "
            f"worst={max(latencies):.3f} slow (> 2x healthy median): "
            f"{slow_logins(latencies, healthy)}/{LOGINS}, {slow}/{LONG_RUN}"
        )
    assert median(healthy) > 0, "latency fault failed to charge the clock"
    assert median(degraded) <= 2 * median(healthy)
    assert aware_slow < blind_slow, "health-aware failover spared no login the ladder"
    emit_bench(
        "failover",
        {
            "radius": {
                "healthy_median_seconds": round(median(healthy), 4),
                "one_down_aware_median_seconds": round(median(degraded), 4),
                "one_down_blind_median_seconds": round(median(blind), 4),
                "one_down_worst_seconds": round(max(degraded), 4),
                "slow_login_run": LONG_RUN,
                "one_down_aware_slow_logins": aware_slow,
                "one_down_blind_slow_logins": blind_slow,
            }
        },
    )


def test_discovery_cost_paid_once():
    # Only the first login eats the dead server's timeout ladder; once the
    # circuit opens, later logins match the healthy profile.
    degraded = login_latencies(down_servers=1)
    healthy = login_latencies(down_servers=0)
    assert max(degraded[0], degraded[1]) > 2 * median(healthy)  # discovery
    tail = degraded[2:]
    assert median(tail) <= 2 * median(healthy)


def test_storage_promotion_latency():
    """Wall seconds to promote a replica (and rejoin) after a primary crash.

    Promotion cost is one catch-up scan plus two digest computations, so it
    must stay well under a second even over a 10k-row shard; rejoin replays
    the whole log into a fresh node and is allowed more.
    """
    group = WALEngine(replicas=2)
    group.create_table(
        "t", TableSchema(("id", "v", "blob"), "id", indexed=("v",))
    )
    rows = 10_000
    for i in range(rows):
        group.insert("t", {"id": i, "v": i % 17, "blob": b"\x00" * 16})

    start = time.perf_counter()
    promoted = group.crash_primary()
    promote_seconds = time.perf_counter() - start
    assert promoted["match"] is True

    start = time.perf_counter()
    rejoined = group.rejoin()
    rejoin_seconds = time.perf_counter() - start
    assert rejoined["match"] is True

    print(
        f"\n=== storage failover ({rows} rows) ===\n"
        f"    promote: {promote_seconds * 1e3:8.1f} ms\n"
        f"    rejoin : {rejoin_seconds * 1e3:8.1f} ms (full log replay)"
    )
    assert promote_seconds < 5.0, f"promotion took {promote_seconds:.2f}s"
    emit_bench(
        "failover",
        {
            "storage": {
                "rows": rows,
                "promote_seconds": round(promote_seconds, 4),
                "rejoin_replay_seconds": round(rejoin_seconds, 4),
                "log_records": group.wal.last_lsn,
            }
        },
    )
