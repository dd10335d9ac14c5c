"""The seeded fault-injection engine.

``ChaosEngine`` binds a :class:`~repro.chaos.plan.FaultPlan` to a live
deployment through three hooks, none of which require the target to know
anything about fault plans:

* ``UDPFabric.chaos`` — consulted once per datagram; the engine may veto
  delivery (partition, flap, loss burst) or charge latency to the
  simulated clock;
* ``SMSGateway.carrier_override`` — swaps in a brownout carrier profile
  while an :class:`~repro.chaos.faults.SMSBrownout` window is open;
* explicit state application on :meth:`tick` — slow storage shards (the
  engines' simulated-latency knob) and device clock skew.

Determinism is the contract: all probabilistic faults draw from per-fault
``random.Random`` instances seeded from ``(run seed, plan name, fault
index, kind)`` via :func:`repro.common.resilience.stable_seed`, time is the
deployment's :class:`~repro.common.clock.VirtualClock`, and every
injection is appended to a :class:`~repro.simcore.EventLog`, whose
canonical JSON rendering is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.chaos.faults import (
    BatchBackfill,
    ClockSkew,
    LatencyFault,
    LossBurst,
    Partition,
    ResolverOutage,
    ServerFlap,
    ShardCrash,
    SlowShard,
    SMSBrownout,
    matches,
)
from repro.chaos.plan import FaultPlan
from repro.common.clock import Clock
from repro.common.resilience import stable_seed
from repro.otpserver.sms_gateway import CarrierProfile
from repro.simcore import EventLog
from repro.storage import find_layer, shards_of


class ChaosEngine:
    """Applies one plan to one deployment, recording every injection."""

    def __init__(
        self,
        plan: FaultPlan,
        clock: Clock,
        seed: int,
        fabric=None,
        sms_gateway=None,
        storage=None,
        devices: Optional[Dict[str, object]] = None,
        ingest=None,
        backfill=None,
        resolvers=None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self._clock = clock
        self.epoch = clock.now()  # plan-relative t=0
        self.log = EventLog(clock, self.epoch)
        # One RNG per fault, seeded independently of the deployment RNG:
        # adding or removing a fault never shifts another fault's draws,
        # and the deployment's own seeded behaviour is untouched.
        self._rngs = {
            index: random.Random(stable_seed(seed, plan.name, index, fault.kind))
            for index, fault in enumerate(plan.faults)
        }
        self._fabric = fabric
        if fabric is not None:
            fabric.chaos = self
        self._sms = sms_gateway
        if sms_gateway is not None:
            sms_gateway.carrier_override = self._carrier_now
        self._storage = storage
        self._devices = devices or {}
        # Backfill faults: ``backfill(items)`` dumps a batch-class load
        # into ``ingest`` (an IngestQueue) and returns the handle of the
        # scheduled pump that drains it.  The window owns that pump — the
        # engine cancels it at window close, after reading the queue's
        # per-class counters back to judge the drain.
        self._ingest = ingest
        self._backfill = backfill
        self._pumps: List[object] = []  # one live handle per open backfill window
        # Resolver-outage faults toggle a named resolver's outage knob on
        # ``resolvers`` (a ResolverChain); the lookup cache is flushed on
        # both edges so the chain actually exercises failover/recovery.
        self._resolvers = resolvers
        self._open: set = set()  # indices of currently-active fault windows

    # -- time ---------------------------------------------------------------

    @property
    def t(self) -> float:
        """Plan-relative simulated time."""
        return self._clock.now() - self.epoch

    # -- event log ----------------------------------------------------------

    @property
    def events(self) -> List[dict]:
        return self.log.events

    def record(self, kind: str, **fields) -> None:
        self.log.append(kind, **fields)

    # -- the fabric hook ----------------------------------------------------

    def on_datagram(self, address: str, source: str = "") -> Optional[str]:
        """Veto or impair one datagram; returns a drop reason or None."""
        t = self.t
        for index, fault in enumerate(self.plan.faults):
            if not fault.active_at(t):
                continue
            if isinstance(fault, Partition):
                if fault.blocks(address, source):
                    self.record("partition_drop", target=address)
                    return "partition"
            elif isinstance(fault, ServerFlap):
                if matches(fault.target, address) and fault.down_at(t):
                    self.record("flap_drop", target=address)
                    return "flap"
            elif isinstance(fault, LossBurst):
                if (
                    matches(fault.target, address)
                    and self._rngs[index].random() < fault.loss_rate
                ):
                    self.record("loss_burst_drop", target=address)
                    return "loss_burst"
            elif isinstance(fault, LatencyFault):
                if matches(fault.target, address):
                    advance = getattr(self._clock, "advance", None)
                    if advance is not None:
                        advance(fault.delay)
                    self.record("latency", target=address, delay=fault.delay)
        return None

    def impaired(self, address: str) -> bool:
        """Is ``address`` deterministically unreachable right now?

        True only for blocking faults (partition, flap downtime) —
        probabilistic loss and latency leave a server "healthy" for the
        availability invariant.
        """
        t = self.t
        for fault in self.plan.faults:
            if not fault.active_at(t):
                continue
            if isinstance(fault, Partition) and fault.blocks(address):
                return True
            if isinstance(fault, ServerFlap):
                if matches(fault.target, address) and fault.down_at(t):
                    return True
        return False

    # -- the SMS hook -------------------------------------------------------

    def _carrier_now(self) -> Optional[CarrierProfile]:
        t = self.t
        for fault in self.plan.faults:
            if isinstance(fault, SMSBrownout) and fault.active_at(t):
                self.record("sms_brownout")
                return CarrierProfile(
                    base_delay=fault.base_delay,
                    delay_jitter=0.0,
                    stall_probability=fault.stall_probability,
                    stall_delay=fault.stall_delay,
                )
        return None

    # -- stateful faults ----------------------------------------------------

    def tick(self) -> None:
        """Advance the engine to the clock's current instant.

        Call between workload steps: logs window transitions and applies /
        reverts the stateful faults (slow shards, clock skew).  The
        datagram and SMS hooks consult time themselves, so a missed tick
        only delays state application, never correctness of drops.
        """
        t = self.t
        active = {
            index
            for index, fault in enumerate(self.plan.faults)
            if fault.active_at(t)
        }
        for index in sorted(active - self._open):
            fault = self.plan.faults[index]
            self.record("window_open", fault=fault.kind, index=index)
            self._apply(fault, entering=True)
        for index in sorted(self._open - active):
            fault = self.plan.faults[index]
            self.record("window_close", fault=fault.kind, index=index)
            self._apply(fault, entering=False)
        self._open = active

    def schedule_ticks(self, scheduler) -> List[object]:
        """Schedule a :meth:`tick` at every fault-window boundary.

        The historical polling mode ticked between workload steps, so a
        window opening mid-step was applied up to one step late (and a
        window shorter than the step could be missed outright).  Scheduling
        one tick at ``epoch + fault.start`` and one at ``epoch + fault.end``
        pins state application exactly to the plan's boundaries: windows are
        half-open ``[start, end)``, so the tick *at* ``start`` opens the
        window and the tick *at* ``end`` closes it.  Boundary ticks are
        scheduled before any same-instant workload event (lower sequence
        number), matching the old tick-before-step ordering.

        Returns the event handles (cancel them to fall back to polling).
        """
        now = scheduler.clock.now()
        boundaries = set()
        for fault in self.plan.faults:
            for offset in (fault.start, fault.end):
                when = self.epoch + offset
                if when >= now:
                    boundaries.add(when)
        return [scheduler.schedule_at(when, self.tick) for when in sorted(boundaries)]

    def _apply(self, fault, entering: bool) -> None:
        if isinstance(fault, SlowShard):
            knob = self._shard_layer("slow-shard", fault.shard, "set_latency")
            knob.set_latency(fault.latency if entering else 0.0)
        elif isinstance(fault, ShardCrash):
            self._crash_shard(fault.shard, entering)
        elif isinstance(fault, BatchBackfill):
            self._run_backfill(fault, entering)
        elif isinstance(fault, ResolverOutage):
            self._resolver_outage(fault, entering)
        elif isinstance(fault, ClockSkew):
            for username, device in self._devices.items():
                if fault.user and username != fault.user:
                    continue
                device.skew = fault.skew if entering else 0.0

    def _run_backfill(self, fault: BatchBackfill, entering: bool) -> None:
        """Dump the backfill and start its pump at window open; audit the
        drain and stop the pump at close.

        The ``backfill_drain`` event carries the batch lane's remaining
        depth — nonzero means the queue could not keep up inside the
        window, which the report turns into an invariant violation.
        """
        if self._backfill is None or self._ingest is None:
            raise TypeError(
                "plan has a batch-backfill fault but no ingestion queue "
                "attached (need an ingest-enabled deployment)"
            )
        if entering:
            self._pumps.append(self._backfill(fault.items))
            self.record("backfill_start", items=fault.items, depth=self._ingest.depth())
        else:
            self._pumps.pop().cancel()
            snap = self._ingest.snapshot()
            batch = snap["classes"]["batch"]
            self.record(
                "backfill_drain",
                remaining=batch["depth"],
                completed=batch["completed"],
                shed=batch["shed"],
                retries=batch["retries"],
            )

    def _resolver_outage(self, fault: ResolverOutage, entering: bool) -> None:
        """Down (or restore) one named resolver on the attached chain.

        The event carries the chain's failover counter so the report can
        assert the outage actually forced traffic onto the fallback, and
        the downed resolver's EWMA score so recovery is visible.
        """
        if self._resolvers is None:
            raise TypeError(
                "plan has a resolver-outage fault but no resolver chain "
                "attached (pass resolvers=center.resolver_chain)"
            )
        try:
            target = self._resolvers.resolver(fault.resolver)
        except KeyError:
            raise TypeError(
                f"plan downs resolver {fault.resolver!r} but the chain has "
                f"no resolver by that name"
            ) from None
        if not hasattr(target, "set_outage"):
            raise TypeError(
                f"resolver {fault.resolver!r} ({type(target).__name__}) has "
                f"no outage knob"
            )
        target.set_outage(entering)
        # Flush the lookup cache on both edges: entering, so cached hits
        # don't mask the outage; leaving, so recovery probes actually fire.
        self._resolvers.invalidate()
        snap = self._resolvers.snapshot()
        self.record(
            "resolver_outage" if entering else "resolver_restore",
            resolver=fault.resolver,
            state=snap["resolvers"][fault.resolver]["state"],
            failovers=snap["failovers"],
        )

    def _shard_layer(self, fault: str, shard: int, attr: str):
        """The layer of shard ``shard`` that has ``attr``: one path for every
        stack, sharded or not; a plan the stack cannot serve raises."""
        if self._storage is None:
            raise TypeError(f"plan has a {fault} fault but no storage target")
        shards = shards_of(self._storage)
        if shard >= len(shards):
            raise TypeError(
                f"plan aims a {fault} fault at shard {shard}; the storage "
                f"stack has {len(shards)}"
            )
        layer = find_layer(shards[shard], attr)
        if layer is None:
            raise TypeError(
                f"plan has a {fault} fault but shard {shard} has no {attr} "
                f"({type(shards[shard]).__name__})"
            )
        return layer

    def _crash_shard(self, shard: int, entering: bool) -> None:
        """Kill (or rejoin) one shard's primary on a replicated stack
        (``StorageConfig(replicas=...)``).

        The promotion/rejoin reports carry state digests computed by the
        storage layer; their ``match`` booleans land in the event log, so a
        lost write shows up both as an invariant violation and as a digest
        change in the determinism check.
        """
        target = self._shard_layer("shard-crash", shard, "crash_primary")
        if entering:
            info = target.crash_primary()
            self.record(
                "shard_crash",
                shard=shard,
                old_primary=info["old_primary"],
                new_primary=info["new_primary"],
                lsn=info["lsn"],
                digest_match=info["match"],
            )
        else:
            info = target.rejoin()
            self.record(
                "shard_rejoin",
                shard=shard,
                node=info["node"],
                lsn=info["lsn"],
                digest_match=info["match"],
            )

    # -- teardown -----------------------------------------------------------

    def detach(self) -> None:
        """Uninstall every hook and revert any stateful faults."""
        for index in sorted(self._open):
            self._apply(self.plan.faults[index], entering=False)
        self._open = set()
        if self._fabric is not None and self._fabric.chaos is self:
            self._fabric.chaos = None
        if self._sms is not None and self._sms.carrier_override == self._carrier_now:
            self._sms.carrier_override = None
