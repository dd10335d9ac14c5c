"""The traced run: spans at the layer boundaries, recorded from outside.

Nothing in ``src/`` is edited.  Timing proxies are hung on the seams the
wiring already exposes publicly — bound methods reached through public
attributes (``daemon.connect``, ``stack.entries[i].module.authenticate``,
``center.fabric.send_request``, ``otp.pipeline.stages[i].run``,
``otp.db.engine.select`` ...) and the RADIUS handlers re-registered on the
fabric.  A span is ``[name, start, end, parent]``; a layer's *self* time is
its span minus the part its child spans cover.  The root span of an op is
the benchmark's own (``driver``): its self time is what no layer's proxy
saw, and ``trace.unattributed_pct`` reports it.

End-to-end numbers never come from here: they are measured untraced, and
``trace.overhead_pct`` is what the proxies add to the primary op.
"""

from __future__ import annotations

import cProfile
import json
import random
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.crypto.secrets import SecretSealer
from repro.crypto.totp import totp_at
from repro.qr import decode_matrix
from repro.radius.dictionary import Attr, PacketCode
from repro.radius.packet import (
    RADIUSPacket,
    decode_packet,
    encode_packet,
    hide_password,
    new_request_authenticator,
)
from repro.storage import find_layer
from repro.telemetry import Registry

from rigs import Rig, wal_shards

#: The root span of every op: the benchmark's own call into the system.
ROOT = "driver"

#: Span names whose self time is reported per primary op (``*_self_us``).
SELF_SPANS = (
    "ssh.client",
    "ssh.connect",
    "pam.stack",
    "pam.pubkey",
    "pam.unix_password",
    "pam.exemption",
    "pam.token",
    "policy.evaluate",
    "policy.risk",
    "radius.client",
    "radius.fabric",
    "radius.server",
    "core.backend",
    "ingest.queue",
    "resolvers.resolve",
    "otpserver.validate",
    "otpserver.admin_client",
    "otpserver.admin_api",
    "otpserver.admin_op",
    "authflow.pipeline",
)

#: Span names reported per call (``*_us``): leaves and the six stages,
#: wherever in the mix they occur.
CALL_SPANS = (
    "ssh.mux_channel",
    "directory.check_password",
    "directory.ldap_search",
    "policy.acl_check",
    "otpserver.sms_send",
    "authflow.resolve_identity",
    "authflow.evaluate_policy",
    "authflow.replay_guard",
    "authflow.dispatch",
    "authflow.apply_outcome",
    "authflow.audit",
    "storage.select",
    "storage.update",
    "storage.insert",
    "storage.delete",
    "storage.point_read",
    "storage.wal_append",
)

#: Every span name that has a row in the per-layer block.
REPORTED_SPANS = frozenset(SELF_SPANS + CALL_SPANS)

#: The engine operations (``storage.wal_append`` is their child, not one).
STORAGE_SPANS = tuple(
    f"storage.{op}" for op in ("select", "update", "insert", "delete", "point_read")
)

PAM_SPANS = {
    "pam_pubkey_success": "pam.pubkey",
    "pam_unix": "pam.unix_password",
    "pam_mfa_exemption": "pam.exemption",
    "pam_mfa_token": "pam.token",
}


class SpanRecorder:
    """In-memory span store for one traced run."""

    def __init__(self, detail_kinds) -> None:
        self._now = time.perf_counter_ns
        self._spans: List[list] = []  # spans of the op in flight
        self._stack: List[int] = []
        self.ops = 0
        self.keep = True  # keep finished ops' raw spans for the trace file
        self.kept: List[Tuple[int, str, List[list]]] = []
        self.calls: Dict[str, array] = defaultdict(lambda: array("q"))
        self.detail_kinds = set(detail_kinds)
        self.per_op: Dict[str, List[Tuple[int, Dict[str, int]]]] = defaultdict(list)
        self.depth_max = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A proxy for ``fn`` that records one span per call inside an op."""
        spans, stack, now = self._spans, self._stack, self._now

        def proxy(*args, **kwargs):
            if not stack:  # not inside a driven op (set-up, final checks)
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()

        return proxy

    def begin(self, kind: str) -> None:
        self._stack.append(0)
        self._spans.append([ROOT, self._now(), 0, -1])

    def end(self, kind: str) -> None:
        spans = self._spans
        spans[0][2] = self._now()
        self._stack.pop()
        covered = [0] * len(spans)
        for span in spans[1:]:
            covered[span[3]] += span[2] - span[1]
        sums: Dict[str, int] = {}
        for index, span in enumerate(spans):
            own = span[2] - span[1] - covered[index]
            self.calls[span[0]].append(own)
            sums[span[0]] = sums.get(span[0], 0) + own
        if kind in self.detail_kinds:
            self.per_op[kind].append((spans[0][2] - spans[0][1], sums))
        if self.keep:
            self.kept.append((self.ops, kind, [list(span) for span in spans]))
        self.ops += 1
        del spans[:]

    def write(self, path: str) -> int:
        """One JSON line per kept span; returns the number written."""
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for op, kind, spans in self.kept:
                for index, (name, start, end, parent) in enumerate(spans):
                    handle.write(
                        json.dumps(
                            {
                                "op": op,
                                "kind": kind,
                                "span": f"{op}.{index}",
                                "parent": None if parent < 0 else f"{op}.{parent}",
                                "name": name,
                                "start_ns": start,
                                "end_ns": end,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


class CallCounter:
    """Counts the interpreter's function calls inside driven ops.

    The work the interpreter does for an op — every Python and C function
    call, as ``cProfile`` counts them — repeats exactly for a seed, whatever
    the neighbours are doing to the clock.  One profiler per op kind; it
    takes the place of the span recorder in ``Workload.drive``.
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, cProfile.Profile] = {}
        self.ops: Dict[str, int] = defaultdict(int)
        self._active = None

    def begin(self, kind: str) -> None:
        self.ops[kind] += 1
        self._active = self._profiles.get(kind)
        if self._active is None:
            self._active = self._profiles[kind] = cProfile.Profile()
        self._active.enable()

    def end(self, kind: str) -> None:
        self._active.disable()

    def calls(self, kind: str) -> int:
        """Calls made inside ops of ``kind`` (less the profiler's own
        ``disable``, one per op)."""
        stats = self._profiles[kind].getstats()
        return sum(entry.callcount for entry in stats) - self.ops[kind]


def install(rig: Rig, rec: SpanRecorder) -> Callable[[], None]:
    """Hang the timing proxies on ``rig``; returns the call that takes them
    off again (the run measures untraced once more afterwards)."""
    missing = object()
    undo: List[tuple] = []  # (object, attribute, what its __dict__ held)

    def hang(obj, attr: str, proxy: Callable) -> None:
        undo.append((obj, attr, vars(obj).get(attr, missing)))
        setattr(obj, attr, proxy)

    def patch(obj, attr: str, name: str) -> None:
        hang(obj, attr, rec.wrap(name, getattr(obj, attr)))

    def uninstall() -> None:
        for obj, attr, held in reversed(undo):
            if held is missing:
                delattr(obj, attr)
            else:
                setattr(obj, attr, held)
        for server in center.radius_servers if rig.system is not None else ():
            center.fabric.unregister(server.address)
            center.fabric.register(server.address, server.handle_datagram)

    center = rig.center
    otp = center.otp
    for client in rig.ssh_clients:
        patch(client, "connect", "ssh.client")
    if rig.system is not None:
        for daemon in rig.system.daemons:
            patch(daemon, "connect", "ssh.connect")
            patch(daemon, "open_channel", "ssh.mux_channel")
            patch(daemon.pam_stack, "authenticate", "pam.stack")
            for entry in daemon.pam_stack.entries:
                patch(entry.module, "authenticate", PAM_SPANS[entry.module.name])
        patch(rig.system.policy, "evaluate", "policy.evaluate")
        patch(rig.system.acl, "check", "policy.acl_check")
        patch(center.identity, "check_password", "directory.check_password")
        patch(center.identity.ldap, "search", "directory.ldap_search")
        for client in rig.radius_clients:
            patch(client, "authenticate", "radius.client")
        patch(center.fabric, "send_request", "radius.fabric")
        for server in center.radius_servers:
            center.fabric.unregister(server.address)
            center.fabric.register(
                server.address, rec.wrap("radius.server", server.handle_datagram)
            )
    patch(center.radius_backend, "validate", "core.backend")
    patch(otp, "validate", "otpserver.validate")
    patch(otp.pipeline, "run", "authflow.pipeline")
    for stage in otp.pipeline.stages:
        patch(stage, "run", f"authflow.{stage.name}")
    patch(otp.policy, "evaluate", "policy.evaluate")
    if otp.policy.risk is not None:
        for feed in ("evaluate", "record_failure", "record_success"):
            patch(otp.policy.risk, feed, "policy.risk")
    patch(center.sms_gateway, "send", "otpserver.sms_send")
    engine = otp.db.engine
    for op in ("select", "update", "insert", "delete"):
        patch(engine, op, f"storage.{op}")
    for op in ("get", "exists", "count", "get_by_unique"):
        patch(engine, op, "storage.point_read")
    for shard in wal_shards(center):
        patch(shard.wal, "append", "storage.wal_append")
    if center.resolver_chain is not None:
        patch(center.resolver_chain, "resolve", "resolvers.resolve")
    queue = center.ingest_queue
    if queue is not None:
        submit = rec.wrap("ingest.queue", queue.submit)

        def submit_and_probe(request):
            ticket = submit(request)
            rec.depth_max = max(rec.depth_max, queue.depth())
            return ticket

        hang(queue, "submit", submit_and_probe)
    if rig.admin_api is not None:
        patch(rig.admin, "call", "otpserver.admin_client")
        patch(rig.admin_api, "request", "otpserver.admin_api")
        for op in (
            "enroll_soft",
            "enroll_sms",
            "assign_hard",
            "unpair",
            "clear_failcount",
            "resync",
            "user_tokens",
        ):
            patch(otp, op, "otpserver.admin_op")
    return uninstall


# -- counts -------------------------------------------------------------------


def _registry_updates(registry) -> int:
    """Counter increments plus histogram observations recorded so far.

    Gauge sets leave no count behind, and the one dollar-valued counter
    (SMS cost) is skipped because its value is not a number of calls.
    """
    total = 0
    snapshot = registry.snapshot(include_traces=False)
    for counter in snapshot["counters"]:
        values = [series["value"] for series in counter["series"]]
        if all(float(value).is_integer() for value in values):
            total += int(sum(values))
    for histogram in snapshot["histograms"]:
        total += sum(series["count"] for series in histogram["series"])
    return total


def read_counts(rig: Rig, rec: SpanRecorder) -> Dict[str, float]:
    """Every count the layers keep, read through public attributes."""
    center = rig.center
    counts: Dict[str, float] = {
        "ldap_searches": center.identity.ldap.query_count,
        "radius_handled": sum(s.handled for s in center.radius_servers),
        "radius_duplicates": sum(s.duplicates_replayed for s in center.radius_servers),
        "audit_rows": len(center.otp.audit),
        "storage_ops": sum(len(rec.calls[name]) for name in STORAGE_SPANS),
        "traced_ops": rec.ops,
    }
    telemetry = center.telemetry
    counts["spans"] = telemetry.tracer().spans_started if telemetry.enabled else 0
    counts["telemetry_updates"] = _registry_updates(telemetry) if telemetry.enabled else 0
    cache = find_layer(center.otp.db.engine, "cache_info")
    info = cache.cache_info() if cache is not None else {"hits": 0, "misses": 0}
    counts["cache_hits"] = info["hits"]
    counts["cache_lookups"] = info["hits"] + info["misses"]
    shards = wal_shards(center)
    counts["wal_bytes"] = sum(shard.wal.bytes_written for shard in shards)
    counts["wal_snapshots"] = sum(shard.wal.snapshots for shard in shards)
    chain = center.resolver_chain
    counts["resolver_lookups"] = chain.lookups if chain is not None else 0
    counts["resolver_hits"] = chain.cache_hits if chain is not None else 0
    queue = center.ingest_queue
    counts["ingest_shed"] = queue.snapshot()["shed_total"] if queue is not None else 0
    return counts


# -- isolated leaf timings ----------------------------------------------------


def _best_us(fn: Callable[[], object], reps: int, batches: int = 5) -> float:
    """Best batch mean, in microseconds per call."""
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter_ns()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter_ns() - start) / reps)
    return best / 1000.0


def leaf_timings(rig: Rig) -> Dict[str, Tuple[float, str]]:
    """Leaf functions timed alone, on inputs shaped like the workload's."""
    rng = random.Random(1)
    secret = next((user.secret for user in rig.users if user.secret), bytes(range(20)))
    now = rig.clock.now()
    sealer = SecretSealer(b"loginbench-master-key-0123456789", rng=rng)
    sealed = sealer.seal(secret)
    shared = rig.center.radius_secret
    authenticator = new_request_authenticator(rng)
    request = RADIUSPacket(PacketCode.ACCESS_REQUEST, 7, authenticator)
    request.add(Attr.USER_NAME, rig.users[0].name)
    request.add(Attr.USER_PASSWORD, hide_password("123456", shared, authenticator))
    request.add(Attr.NAS_IDENTIFIER, "login-node")
    wire = encode_packet(request, shared)
    # The telemetry leaves are what this rig's registry costs: the real
    # instruments when the deployment runs with telemetry on, the no-ops
    # (near zero) when it does not.
    live = rig.center.telemetry.enabled
    registry = Registry(clock=rig.clock) if live else rig.center.telemetry
    counter = registry.counter("loginbench_probe_total")
    tracer = registry.tracer()

    def span() -> None:
        with tracer.span("loginbench.probe", user="u00000"):
            pass

    return {
        "crypto.totp_at_us": (_best_us(lambda: totp_at(secret, now), 2000), "us"),
        "crypto.unseal_us": (_best_us(lambda: sealer.unseal(sealed), 2000), "us"),
        "crypto.hide_password_us": (
            _best_us(lambda: hide_password("123456", shared, authenticator), 2000),
            "us",
        ),
        "radius.encode_us": (_best_us(lambda: encode_packet(request, shared), 2000), "us"),
        "radius.decode_us": (_best_us(lambda: decode_packet(wire), 2000), "us"),
        "telemetry.counter_inc_us": (
            _best_us(lambda: counter.inc(status="ok"), 2000),
            "us",
        ),
        "telemetry.span_us": (_best_us(span, 2000), "us"),
    }


def pairing_pages(workload, rec: SpanRecorder, pages: int) -> Dict[str, Tuple[float, str]]:
    """The portal's soft-pairing page, ``pages`` times: admin init + QR.

    Runs as extra ops of the traced run (kind ``portal.begin_soft``) on
    pool accounts, which are all unpaired between lifecycles; each page is
    rolled back the way a browser refresh would.  The QR render has no
    seam but the name the portal module imported, so that name is proxied
    for the duration of the loop and put back.
    """
    from repro.portal import portal as portal_module

    rig = workload.rig
    portal = portal_module.UserPortal(
        rig.center.identity, rig.admin, clock=rig.clock, rng=random.Random(workload.seed)
    )
    begin = rec.wrap("portal.begin_soft", portal.begin_soft_pairing)
    decode_ns = []
    render = portal_module.encode
    portal_module.encode = rec.wrap("qr.encode", render)
    try:
        for index in workload.pool[:pages]:
            rec.begin("portal.begin_soft")
            session, qr = begin(rig.users[index].name)
            rec.end("portal.begin_soft")
            start = time.perf_counter_ns()
            payload = decode_matrix(qr.matrix)
            decode_ns.append(time.perf_counter_ns() - start)
            if payload.decode() != session.context["otpauth_uri"]:
                raise RuntimeError("QR round trip changed the provisioning URI")
            portal.refresh(session.session_id)
    finally:
        portal_module.encode = render
    pages_run = [sums for _, sums in rec.per_op["portal.begin_soft"]]
    return {
        "qr.encode_ms": (fast_ns([s["qr.encode"] for s in pages_run]) / 1e6, "ms"),
        "qr.decode_ms": (fast_ns(decode_ns) / 1e6, "ms"),
        "portal.begin_soft_self_us": (
            fast_ns([s["portal.begin_soft"] for s in pages_run]) / 1e3,
            "us",
        ),
    }


# -- the per-layer block ------------------------------------------------------


#: Every time this benchmark reports — end-to-end latency, a layer's self
#: time, a call's time — is read at this quantile of its samples.
FAST_Q = 0.01


def fast_ns(values) -> float:
    """The ``FAST_Q`` quantile from the fast end, in ns (0 for no samples).

    This sandbox shares its cores: for milliseconds at a time everything
    runs 1.3 to 2 times slower.  Interference only ever adds time, and a
    span is short enough to fit between the bursts, so the fast tail is the
    cost of the code on the machine as it is during this run.  That is
    enough for the per-layer rows, which are read against each other within
    one run; the gated end-to-end times must also repeat from run to run
    and are taken another way (reference.py).
    """
    if not len(values):
        return 0.0
    return float(sorted(values)[int(FAST_Q * len(values))])


def layer_metrics(
    workload,
    rec: SpanRecorder,
    before: Dict[str, float],
    after: Dict[str, float],
    counted_ops: int,
    counted_logins: int,
    counted_pam_runs: int,
) -> Dict[str, Tuple[float, str]]:
    """Self times, per-call times and per-op counts of one traced run.

    ``*_self_us`` is a span's summed self time per primary op, as a mean
    over the primary ops that ran undisturbed (those no slower than the
    ``FAST_Q`` quantile); ``*_us`` is a span's self time per call anywhere
    in the mix, at that quantile.  ``before``/``after`` bracket the first
    two traced segments, the part of a run that is the same for every run
    of one seed, so the counts repeat exactly; the times use every traced
    segment.
    """
    rig = workload.rig
    primary = rec.per_op[workload.primary]
    cut = fast_ns([duration for duration, _ in primary])
    quiet = [(duration, sums) for duration, sums in primary if duration <= cut]
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in SELF_SPANS:
        own_ns = sum(sums.get(name, 0) for _, sums in quiet) / len(quiet) if quiet else 0.0
        metrics[f"{name}_self_us"] = (own_ns / 1000.0, "us")
    for name in CALL_SPANS:
        metrics[f"{name}_us"] = (fast_ns(rec.calls[name]) / 1000.0, "us")
    # The closing check of the budget: the share of those ops' latency that
    # no reported span accounts for — the driver's own span, and any span
    # name that has no row above.
    whole_ns = sum(duration for duration, _ in quiet)
    rows_ns = sum(
        own for _, sums in quiet for name, own in sums.items() if name in REPORTED_SPANS
    )
    metrics["trace.unattributed_pct"] = (
        100.0 * (whole_ns - rows_ns) / whole_ns if whole_ns else 0.0,
        "%",
    )

    def per_op(key: str, base: int = counted_ops) -> float:
        return (after[key] - before[key]) / base if base else 0.0

    def ratio(part: str, whole: str) -> float:
        total = after[whole] - before[whole]
        return (after[part] - before[part]) / total if total else 0.0

    queue = rig.center.ingest_queue
    waits = [0.0]
    if queue is not None:
        waits = [
            info["mean_wait_seconds"] or 0.0
            for info in queue.snapshot()["classes"].values()
        ]
    metrics.update(
        {
            "ssh.pam_runs_per_login": (
                counted_pam_runs / counted_logins if counted_logins else 0.0,
                "1/op",
            ),
            "directory.ldap_searches_per_login": (
                per_op("ldap_searches", counted_logins),
                "1/op",
            ),
            "directory.entries": (float(len(rig.center.identity.ldap)), "count"),
            "policy.acl_rules": (
                float(len(rig.system.acl.rules())) if rig.system else 0.0,
                "count",
            ),
            "radius.requests_per_login": (per_op("radius_handled", counted_logins), "1/op"),
            "radius.duplicates_replayed": (
                after["radius_duplicates"] - before["radius_duplicates"],
                "count",
            ),
            "ingest.wait_us": (max(waits) * 1e6, "us"),
            "ingest.shed_count": (after["ingest_shed"] - before["ingest_shed"], "count"),
            "ingest.depth_max": (float(rec.depth_max), "count"),
            "resolvers.cache_hit_ratio": (
                ratio("resolver_hits", "resolver_lookups"),
                "ratio",
            ),
            "otpserver.audit_rows_per_op": (per_op("audit_rows"), "1/op"),
            "storage.ops_per_op": (per_op("storage_ops"), "1/op"),
            "storage.cache_lookups_per_op": (per_op("cache_lookups"), "1/op"),
            "storage.cache_hit_ratio": (ratio("cache_hits", "cache_lookups"), "ratio"),
            "storage.wal_bytes_per_op": (per_op("wal_bytes"), "B/op"),
            "storage.wal_snapshots": (
                after["wal_snapshots"] - before["wal_snapshots"],
                "count",
            ),
            "telemetry.spans_per_op": (per_op("spans"), "1/op"),
            "telemetry.series_touched_per_op": (per_op("telemetry_updates"), "1/op"),
        }
    )
    return metrics
