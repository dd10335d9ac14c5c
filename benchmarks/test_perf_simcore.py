"""PERF — the discrete-event core.

One claim, asserted and exported as ``BENCH_simcore.json``: **the event
heap is cheap.**  Scheduling and draining 200k events (with the usual mix
of same-instant ties and mid-run scheduling) must sustain well over 100k
events/second, with sub-millisecond p99 dispatch — the scheduler must
never be the bottleneck of a simulation.
"""

from __future__ import annotations

import time

from benchlib import emit_bench, percentile

from repro.simcore import EventScheduler, VirtualClock

SCHEDULER_EVENTS = 200_000


class TestSchedulerThroughput:
    def test_200k_events_sustain_100k_per_second(self):
        scheduler = EventScheduler(clock=VirtualClock(0.0), seed=1)
        dispatch_gaps = []
        last = [time.perf_counter()]

        def fire():
            now = time.perf_counter()
            dispatch_gaps.append(now - last[0])
            last[0] = now

        began = time.perf_counter()
        for i in range(SCHEDULER_EVENTS):
            scheduler.schedule(float(i % 1000), fire)  # heavy tie traffic
        scheduled = time.perf_counter() - began

        began = time.perf_counter()
        fired = scheduler.run()
        drained = time.perf_counter() - began
        elapsed = scheduled + drained

        assert fired == SCHEDULER_EVENTS
        ops_per_sec = SCHEDULER_EVENTS / elapsed
        p50 = percentile(dispatch_gaps, 50)
        p99 = percentile(dispatch_gaps, 99)
        print(
            f"\n=== event scheduler ({SCHEDULER_EVENTS:,} events) ===\n"
            f"    schedule: {scheduled:6.3f}s   drain: {drained:6.3f}s"
            f"   ({ops_per_sec:,.0f} events/s)\n"
            f"    dispatch gap p50={p50 * 1e6:.1f}us p99={p99 * 1e6:.1f}us"
        )
        emit_bench(
            "simcore",
            {
                "scheduler": {
                    "events": SCHEDULER_EVENTS,
                    "ops_per_sec": round(ops_per_sec, 1),
                    "dispatch_p50_us": round(p50 * 1e6, 2),
                    "dispatch_p99_us": round(p99 * 1e6, 2),
                }
            },
        )
        assert ops_per_sec > 100_000, f"only {ops_per_sec:,.0f} events/s"
        assert p99 < 1e-3, f"p99 dispatch gap {p99 * 1e3:.2f}ms"
