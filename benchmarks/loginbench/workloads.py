"""The four loginbench workloads: schedules, drivers and correctness checks.

Every workload is a closed loop of one client with zero think time.  A
*schedule* (which op, which account) comes from the seed alone; the driver
turns each op into one call into the system, after doing the client's own
work (reading a code off a device, picking a source address) outside the
timed region.  Each op carries the outcome a reference model expects, and
an expected reject is not a failure.

Why these four (the table in README.md says more):

* ``login_mfa``        — the paper's headline path, every tier does work;
* ``login_bypass``     — the traffic that never reaches the back end;
* ``validate_backend`` — the production back end without the front tiers;
* ``admin_churn``      — the same storage used the other way (writes).
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from rigs import (
    EXTERNAL_IPS,
    INTERNAL_IPS,
    SMS_WAIT,
    TABLE1,
    WRONG_CODE_USERS,
    Rig,
    User,
    build_backend_rig,
    build_login_rig,
    not_code,
    quotas,
    wal_shards,
    wrong_code,
)

from repro.crypto.totp import time_step, totp_at
from repro.ssh import SSHClient
from repro.storage import load_wal, replay, state_digest


#: The reference burst that precedes a segment's first op.
REFERENCE_LEAD_NS = 1_000_000


@dataclass
class Op:
    """One scheduled operation.  ``state`` is client memory shared by the
    ops of one lifecycle; it is not part of the schedule."""

    kind: str
    user: int  # index into the rig's users, -1 when no account is involved
    tag: str = ""
    state: Optional[dict] = None


@dataclass
class Segment:
    """What one driven segment measured."""

    ops: int
    by_kind: Dict[str, List[int]]  # wall-clock ns of every op
    failed: int
    logins: int = 0
    pam_runs: int = 0
    # The same ops in reference units (see reference.py), when the segment
    # was driven beside the reference.
    in_units: Optional[Dict[str, List[float]]] = None


class Workload:
    """Schedule generator + driver for one traffic mix on one rig."""

    name = ""
    primary = ""  # the op kind whose cost is quoted for the workload
    why = ""
    dt = 1.0  # virtual seconds between ops
    segment_ops = 100

    def __init__(self, seed: int, accounts: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.accounts = accounts
        self.size = max(20, int(self.segment_ops * scale))
        self.rig: Optional[Rig] = None

    # -- set-up ---------------------------------------------------------------

    def build(self, out_dir: str) -> Rig:
        """Construct the rig and reset the schedule; called once per set-up."""
        self.rng = random.Random(f"loginbench:{self.seed}:{self.name}:schedule")
        self.n = 0  # ops driven so far
        self.mismatches: List[str] = []
        self._hash = hashlib.sha256()
        self.rig = self._build(out_dir)
        return self.rig

    def _build(self, out_dir: str) -> Rig:
        raise NotImplementedError

    # -- schedule -------------------------------------------------------------

    def segment(self) -> List[Op]:
        """The next segment of the schedule, folded into the digest."""
        ops = self._segment()
        for op in ops:
            self._hash.update(f"{op.kind}|{op.user}|{op.tag}\n".encode())
        return ops

    def schedule_sha256(self) -> str:
        return self._hash.copy().hexdigest()

    def _segment(self) -> List[Op]:
        raise NotImplementedError

    def _kinds(self, mix) -> List[str]:
        """Exactly ``mix`` percent of each class per segment, in seeded
        order — seeds move which accounts and which order, never the mix."""
        counts = quotas(self.size, mix)
        kinds = [name for name, _ in mix for _ in range(counts[name])]
        self.rng.shuffle(kinds)
        return kinds

    # -- driver ---------------------------------------------------------------

    def prepare(self, op: Op) -> Tuple[Callable[[], object], object]:
        """Client-side work for ``op``: returns the call and its expected
        outcome.  Runs outside the timed region."""
        raise NotImplementedError

    def settle(self, op: Op, outcome: object) -> None:
        """Client-side work after the call (hang up, remember a secret)."""

    def drive(self, ops: List[Op], recorder=None, reference=None) -> Segment:
        """Drive ``ops`` one after another.  With a ``reference``, a burst
        of its units follows every op (outside the timed region, half as
        long as the op took) and each latency is also recorded as a
        multiple of the unit time just before and just after it."""
        clock, dt = self.rig.clock, self.dt
        by_kind: Dict[str, List[int]] = {}
        in_units: Optional[Dict[str, List[float]]] = None
        if reference is not None:
            in_units = {}
            before = reference.burst(REFERENCE_LEAD_NS)
        failed = 0
        self.logins = self.pam_runs = 0
        now = time.perf_counter_ns
        for op in ops:
            clock.advance(dt)
            call, expect = self.prepare(op)
            if recorder is not None:
                recorder.begin(op.kind)
            t0 = now()
            outcome = call()
            t1 = now()
            if recorder is not None:
                recorder.end(op.kind)
            self.n += 1
            if outcome != expect:
                failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"op {self.n} {op.kind} user {op.user}: "
                        f"expected {expect!r}, got {outcome!r}"
                    )
            self.settle(op, outcome)
            by_kind.setdefault(op.kind, []).append(t1 - t0)
            if reference is not None:
                after = reference.burst((t1 - t0) // 2)
                in_units.setdefault(op.kind, []).append(2.0 * (t1 - t0) / (before + after))
                before = after
        return Segment(len(ops), by_kind, failed, self.logins, self.pam_runs, in_units)

    # -- correctness ----------------------------------------------------------

    def checks(self) -> List[str]:
        """End-of-run invariants; returns one line per violation."""
        return []

    def _check_wal(self) -> List[str]:
        """Reload each shard's WAL file and require the replayed state to
        equal the live one — speed may not be bought with durability."""
        problems = []
        for index, shard in enumerate(wal_shards(self.rig.center)):
            records, dropped = load_wal(shard.wal.path)
            if dropped:
                problems.append(f"shard {index}: {dropped} WAL lines dropped on reload")
            if state_digest(replay(records)) != shard.state_digest():
                problems.append(f"shard {index}: replayed WAL differs from live state")
        return problems


# ---------------------------------------------------------------------------
# SSH front-tier workloads
# ---------------------------------------------------------------------------


class _SSHWorkload(Workload):
    def _connect(self, client, daemon, user: User, **how):
        """One ``SSHClient.connect`` reduced to (accepted, PAM runs)."""

        def call():
            result, _ = client.connect(daemon, user.name, **how)
            self._result = (daemon, result)
            return (result.success, result.password_attempts)

        return call

    def settle(self, op: Op, outcome: object) -> None:
        daemon, result = self._result
        if not op.kind.startswith("mux"):
            self.logins += 1
            self.pam_runs += result.password_attempts
            if result.success:
                daemon.disconnect(result.connection_id)


class LoginMFA(_SSHWorkload):
    name = "login_mfa"
    primary = "first_try.soft"
    why = (
        "external password+token SSH logins over every tier at 10,000 accounts; "
        "the only mix where directory size and the RADIUS round trip matter"
    )
    dt = 31.0  # every login lands in a fresh TOTP step
    segment_ops = 100
    mix = (("first_try", 92), ("retry", 5), ("wrong", 3))

    def _build(self, out_dir: str) -> Rig:
        rig = build_login_rig(self.seed, self.accounts)
        soft = [user for user in rig.active if user.kind == "soft"]
        self.wrong_users = soft[:WRONG_CODE_USERS]
        self.wrong_index = [rig.position[user.name] for user in self.wrong_users]
        self.population = [
            rig.position[user.name]
            for user in rig.active
            if user not in self.wrong_users
        ]
        self.strikes = {user.name: 0 for user in self.wrong_users}
        self.wrong_turn = 0
        self.clients = rig.ssh_clients = [SSHClient(ip) for ip in EXTERNAL_IPS]
        return rig

    def _segment(self) -> List[Op]:
        ops = []
        for klass in self._kinds(self.mix):
            if klass == "wrong":
                # A small dedicated set, so the 20-strike lockout is reached.
                index = self.wrong_index[self.wrong_turn % len(self.wrong_index)]
                self.wrong_turn += 1
            else:
                index = self.rng.choice(self.population)
            ops.append(Op(f"{klass}.{self.rig.users[index].kind}", index))
        return ops

    def _token(self, user: User, wrongs: int):
        """What the user types at "Token Code:" — ``wrongs`` bad codes, then
        the right one.  SMS users wait for the text and read it."""
        rig = self.rig
        now = rig.clock.now()
        if user.kind == "sms":
            seen: List[str] = []
            left = [wrongs]

            def read_text() -> str:
                if not seen:
                    rig.clock.advance(SMS_WAIT)
                    seen.append(rig.center.sms_gateway.latest(user.phone).body[-6:])
                if left[0]:
                    left[0] -= 1
                    return not_code(seen[0])
                return seen[0]

            return read_text
        if user.kind == "training":
            right, wrong = user.static_code, not_code(user.static_code)
        else:
            right = totp_at(user.secret, now + user.skew)
            wrong = wrong_code(user.secret, now + user.skew) if wrongs else ""
        if not wrongs:
            return right
        return iter([wrong] * wrongs + [right]).__next__

    def prepare(self, op: Op):
        rig = self.rig
        user = rig.users[op.user]
        klass = op.kind.split(".")[0]
        wrongs, expect = {
            "first_try": (0, (True, 1)),
            "retry": (1, (True, 2)),
            "wrong": (3, (False, 3)),
        }[klass]
        call = self._connect(
            self.clients[self.n % len(self.clients)],
            rig.system.daemons[self.n % len(rig.system.daemons)],
            user,
            password=user.password,
            token=self._token(user, wrongs),
        )
        return call, expect

    def settle(self, op: Op, outcome: object) -> None:
        super().settle(op, outcome)
        if op.kind.startswith("wrong"):
            self.strikes[self.rig.users[op.user].name] += 3

    def checks(self) -> List[str]:
        problems = []
        otp = self.rig.center.otp
        threshold = otp.config.lockout_threshold
        for user in self.rig.users:
            expected = self.strikes.get(user.name, 0) >= threshold
            if otp.is_locked(user.uid) != expected:
                problems.append(
                    f"{user.name}: locked={not expected}, model says {expected}"
                )
        return problems[:5]


class LoginBypass(_SSHWorkload):
    name = "login_bypass"
    primary = "pubkey"
    why = (
        "Fig. 4 traffic that never reaches the back end: internal public-key and "
        "password logins, multiplexed channels, ACL-exempt gateways; a back-end "
        "change must leave it unmoved"
    )
    dt = 1.0
    segment_ops = 2000
    mix = (
        ("pubkey", 45),
        ("mux", 25),
        ("int_password", 15),
        ("gw_exempt", 10),
        ("wrong_pw", 5),
    )

    def _build(self, out_dir: str) -> Rig:
        rig = build_login_rig(self.seed, self.accounts, bypass=True)
        at = rig.position
        self.pools = {
            "pubkey": [at[u.name] for u in rig.key_users],
            "mux": [at[u.name] for u in rig.masters],
            "gw_exempt": [at[u.name] for u in rig.gateways],
        }
        self.others = [at[u.name] for u in rig.active if u not in rig.gateways]
        self.inside = [SSHClient(ip) for ip in INTERNAL_IPS]
        self.outside = [SSHClient(ip) for ip in EXTERNAL_IPS]
        rig.ssh_clients = self.inside + self.outside + [rig.mux_client]
        self.backend_before = self._backend_traffic(rig.center)
        return rig

    @staticmethod
    def _backend_traffic(center) -> tuple:
        return (
            center.otp.validate_requests,
            tuple(server.handled for server in center.radius_servers),
            center.fabric.stats.sent,
        )

    def _segment(self) -> List[Op]:
        return [
            Op(kind, self.rng.choice(self.pools.get(kind, self.others)))
            for kind in self._kinds(self.mix)
        ]

    def prepare(self, op: Op):
        rig = self.rig
        user = rig.users[op.user]
        daemon = rig.system.daemons[self.n % len(rig.system.daemons)]
        inside = self.inside[self.n % len(self.inside)]
        if op.kind == "pubkey":
            return self._connect(inside, daemon, user, key=rig.keys[user.name]), (True, 1)
        if op.kind == "mux":
            # Channels attach to the master, which lives on the first node.
            return self._connect(rig.mux_client, rig.system.daemons[0], user), (True, 1)
        if op.kind == "int_password":
            return self._connect(inside, daemon, user, password=user.password), (True, 1)
        if op.kind == "gw_exempt":
            outside = self.outside[self.n % len(self.outside)]
            return self._connect(outside, daemon, user, password=user.password), (True, 1)
        return self._connect(inside, daemon, user, password="not-my-password"), (False, 3)

    def checks(self) -> List[str]:
        after = self._backend_traffic(self.rig.center)
        if after != self.backend_before:
            return [
                "back end saw traffic on a bypass workload: "
                f"(validates, radius handled, datagrams) {self.backend_before} -> {after}"
            ]
        return []


# ---------------------------------------------------------------------------
# Production back-end workloads
# ---------------------------------------------------------------------------


class ValidateBackend(Workload):
    name = "validate_backend"
    primary = "valid"
    why = (
        "RADIUS-side validate() on the production stack (WAL, cache, ingest, risk, "
        "resolvers, telemetry on) with a working set larger than every cache; "
        "a front-tier change must leave it unmoved"
    )
    dt = 0.25
    segment_ops = 2000
    mix = (("valid", 85), ("wrong", 7), ("replay", 3), ("locked", 2), ("unknown", 3))
    HOT_SHARE = 0.8
    MAX_FAILS = 15  # the model keeps live accounts clear of the 20-strike rule

    def _build(self, out_dir: str) -> Rig:
        rig = build_backend_rig(self.seed, self.accounts, out_dir)
        at = rig.position
        barred = {user.name for user in rig.locked}
        self.totp = [
            at[u.name]
            for u in rig.by_kind["soft"] + rig.by_kind["hard"]
            if u.name not in barred
        ]
        order = list(self.totp)
        self.rng.shuffle(order)
        self.hot = order[: max(1, self.accounts // 10)]
        self.locked = [at[u.name] for u in rig.locked]
        self.unpaired = [at[u.name] for u in rig.by_kind["unpaired"]]
        # Reference model of the validator: last accepted device step, the
        # device offset it has learned and consecutive failures per account,
        # plus the schedule's own clock.
        self.last_step: Dict[int, int] = {}
        self.offset: Dict[int, int] = {}
        self.fails: Dict[int, int] = {}
        self.recent: deque = deque(maxlen=256)
        self.when = rig.clock.now()
        return rig

    def _draw(self, accept) -> int:
        for _ in range(1000):
            pool = self.hot if self.rng.random() < self.HOT_SHARE else self.totp
            index = self.rng.choice(pool)
            if accept(index):
                return index
        raise RuntimeError("schedule model found no eligible account")

    def _may_fail(self, index: int) -> bool:
        return self.fails.get(index, 0) < self.MAX_FAILS

    def _probes(self, index: int, when: float):
        """The device steps the validator tries for this account at
        ``when``, in its order: outward from where it believes the device
        clock is, ten steps either way, skipping consumed steps."""
        center = time_step(when) + self.offset.get(index, 0)
        floor = self.last_step.get(index, -1)
        for distance in range(11):
            for sign in (0,) if distance == 0 else (1, -1):
                if center + sign * distance > floor:
                    yield center + sign * distance

    def _accepted_step(self, index: int, when: float) -> Optional[int]:
        """The step at which the validator accepts the device's current
        code, or None when it would call it a replay.

        Until the server has learned a device's skew it probes other steps
        before the right one, and one time in a few hundred thousand a
        six-digit code repeats there; the model follows the validator
        rather than failing an op over it.
        """
        user = self.rig.users[index]
        true = time_step(when + user.skew)
        if true <= self.last_step.get(index, -1):
            return None
        code = None
        for step in self._probes(index, when):
            if step == true:
                return true
            code = code or totp_at(user.secret, 30.0 * true)
            if totp_at(user.secret, 30.0 * step) == code:
                return step
        raise RuntimeError(f"{user.name}: device step outside the drift window")

    def _replayable(self, when: float) -> Optional[int]:
        """The newest accepted code that is still its account's latest and
        does not happen to repeat at a step the validator still accepts."""
        while self.recent:
            index, step = self.recent.pop()
            if self.last_step.get(index) != step or not self._may_fail(index):
                continue
            secret = self.rig.users[index].secret
            code = totp_at(secret, 30.0 * step)
            if all(totp_at(secret, 30.0 * s) != code for s in self._probes(index, when)):
                return index
        return None

    def _segment(self) -> List[Op]:
        ops = []
        for kind in self._kinds(self.mix):
            self.when += self.dt
            when = self.when
            if kind == "replay":
                index = self._replayable(when)
                if index is None:
                    kind = "wrong"  # nothing accepted yet to replay
                else:
                    self.fails[index] = self.fails.get(index, 0) + 1
                    ops.append(Op("replay", index, str(self.last_step[index])))
                    continue
            if kind == "valid":
                # A device shows one code per 30 s step; a second login in
                # the same step would be a replay, so draw someone else.
                index = self._draw(lambda i: self._accepted_step(i, when) is not None)
                self.last_step[index] = self._accepted_step(index, when)
                self.offset[index] = self.last_step[index] - time_step(when)
                self.fails.pop(index, None)
                self.recent.append((index, self.last_step[index]))
                ops.append(Op("valid", index))
            elif kind == "wrong":
                index = self._draw(self._may_fail)
                self.fails[index] = self.fails.get(index, 0) + 1
                ops.append(Op("wrong", index))
            elif kind == "locked":
                ops.append(Op("locked", self.rng.choice(self.locked)))
            elif self.rng.random() < 0.5:
                ops.append(Op("unknown", -1, f"ghost{self.rng.randrange(500):03d}"))
            else:
                ops.append(Op("unknown", self.rng.choice(self.unpaired)))
        return ops

    EXPECT = {
        "valid": "ok",
        "wrong": "reject",
        "replay": "reject",
        "locked": "locked",
        "unknown": "no_token",
    }

    def prepare(self, op: Op):
        rig = self.rig
        now = rig.clock.now()
        if op.user < 0:
            name, code = op.tag, "000000"
        else:
            user = rig.users[op.user]
            name = user.name
            if op.kind == "wrong":
                code = wrong_code(user.secret, now + user.skew)
            elif op.kind == "replay":
                code = totp_at(user.secret, 30.0 * int(op.tag))
            elif user.secret:
                code = totp_at(user.secret, now + user.skew)
            else:
                code = "000000"
        backend = rig.center.radius_backend

        def call():
            # Exactly what RADIUSServer does with a decoded Access-Request.
            return backend.validate(name, code).status.value

        return call, self.EXPECT[op.kind]

    def checks(self) -> List[str]:
        problems = self._check_wal()
        otp, users = self.rig.center.otp, self.rig.users
        for index in self.locked:
            if not otp.is_locked(users[index].uid):
                problems.append(f"{users[index].name} should still be locked out")
        for index in self.totp:
            token = otp.user_tokens(users[index].uid)[0]
            if not token.active or token.failcount != self.fails.get(index, 0):
                problems.append(
                    f"{users[index].name}: active={token.active} "
                    f"failcount={token.failcount}, model says {self.fails.get(index, 0)}"
                )
        return problems[:5]


class AdminChurn(Workload):
    name = "admin_churn"
    primary = "init"
    why = (
        "digest-authenticated admin lifecycles (init, check, show, reset, resync, "
        "remove) on the production stack: inserts, deletes and transactions, so a "
        "read-path gain that taxes writes shows as a loss"
    )
    dt = 0.25
    segment_ops = 500  # lifecycles per segment; each is 4 to 10 admin calls
    devices = tuple((kind, share) for kind, share in TABLE1 if kind != "training")

    def _build(self, out_dir: str) -> Rig:
        rig = build_backend_rig(self.seed, self.accounts, out_dir, admin=True)
        self.pool = [rig.position[u.name] for u in rig.by_kind["unpaired"]]
        self.turn = 0
        self.serials: List[str] = []
        self.tokens_before = rig.center.otp.db.table("tokens").count()
        return rig

    def _segment(self) -> List[Op]:
        lifecycles = self._kinds(self.devices)
        # One lifecycle in ten also fails three times and is reset; one in
        # twenty (never SMS: there is no device to resync) is resynced.
        order = list(range(self.size))
        self.rng.shuffle(order)
        wrong = set(order[: self.size // 10])
        resync = set(
            [i for i in order[self.size // 10 :] if lifecycles[i] != "sms"][
                : self.size // 20
            ]
        )
        ops = []
        for position, device in enumerate(lifecycles):
            index = self.pool[self.turn % len(self.pool)]
            self.turn += 1
            state: dict = {}  # what the client learns along the way
            steps = ["init"]
            if device == "sms":
                steps.append("check_null")
            steps += ["check", "show"]
            if position in wrong:
                steps += ["wrong", "wrong", "wrong", "reset"]
            elif position in resync:
                steps.append("resync")
            steps.append("remove")
            ops += [Op(step, index, device, state) for step in steps]
        return ops

    def _hard_serial(self) -> str:
        if not self.serials:
            # Outside the timed region: take delivery of another box of fobs.
            batch = self.rig.center.receive_hard_batch(64)
            for serial in batch.serials():
                self.rig.hard_secrets[serial] = batch.secret_for(serial)
            self.serials = batch.serials()
        return self.serials.pop()

    def _request(self, op: Op):
        """(method, path, params, reducer, expected) for one admin call."""
        rig = self.rig
        user, state, device = rig.users[op.user], op.state, op.tag
        now = rig.clock.now()
        phone = f"512{6660000 + op.user:07d}"
        if op.kind == "init":
            params = {"user": user.uid, "type": device}
            if device == "sms":
                params["phone"] = phone
            elif device == "hard":
                params["serial"] = self._hard_serial()
                state["secret"] = rig.hard_secrets[params["serial"]]
            keys = ("otpkey", "serial") if device == "soft" else ("serial",)
            return "POST", "/admin/init", params, _keys, keys
        if op.kind == "check_null":
            params = {"user": user.name}
            return "POST", "/validate/check", params, _status, "challenge_sent"
        if op.kind == "check":
            if device == "sms":
                rig.clock.advance(SMS_WAIT)
                code = rig.center.sms_gateway.latest(phone).body[-6:]
            else:
                code = totp_at(state["secret"], now)
            params = {"user": user.name, "pass": code}
            return "POST", "/validate/check", params, _status, "ok"
        if op.kind == "wrong":
            code = "000000" if device == "sms" else wrong_code(state["secret"], now)
            params = {"user": user.name, "pass": code}
            return "POST", "/validate/check", params, _status, "reject"
        if op.kind == "show":
            expect = ((device, True, 0, True),)
            return "GET", "/admin/show", {"user": user.uid}, _tokens, expect
        if op.kind == "resync":
            # The next two codes off the device, as the admin UI asks for.
            step = time_step(now)
            params = {
                "user": user.uid,
                "otp1": totp_at(state["secret"], 30.0 * (step + 1)),
                "otp2": totp_at(state["secret"], 30.0 * (step + 2)),
            }
            return "POST", "/admin/resync", params, _only_value, True
        path = "/admin/reset" if op.kind == "reset" else "/admin/remove"
        return "POST", path, {"user": user.uid}, _only_value, 1

    def prepare(self, op: Op):
        method, path, params, reduce, expect = self._request(op)
        admin = self.rig.admin

        def call():
            self._body = admin.call(method, path, params)
            return reduce(self._body)

        return call, expect

    def settle(self, op: Op, outcome: object) -> None:
        if op.kind == "init" and op.tag == "soft":
            op.state["secret"] = bytes.fromhex(self._body["otpkey"])

    def checks(self) -> List[str]:
        problems = self._check_wal()
        otp, users = self.rig.center.otp, self.rig.users
        left = [users[i].name for i in self.pool if otp.has_pairing(users[i].uid)]
        if left:
            problems.append(f"{len(left)} pool accounts still paired, e.g. {left[0]}")
        tokens = otp.db.table("tokens").count()
        if tokens != self.tokens_before:
            problems.append(f"token rows {self.tokens_before} -> {tokens} after full lifecycles")
        return problems


def _keys(body: dict):
    return tuple(sorted(body))


def _status(body: dict):
    return body["status"]


def _only_value(body: dict):
    return next(iter(body.values()))


def _tokens(body: dict):
    return tuple(
        (t["type"], t["active"], t["failcount"], t["confirmed"])
        for t in body["tokens"]
    )


WORKLOADS = {w.name: w for w in (LoginMFA, LoginBypass, ValidateBackend, AdminChurn)}
