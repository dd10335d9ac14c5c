"""Seeded paper-scale deployments for the loginbench workloads.

Two rigs, both built through the public enrolment surface only:

* :func:`build_login_rig` — the default ``MFACenter()`` (three RADIUS
  servers, in-memory storage, no-op telemetry) with one ``full``-mode
  system; every account has a password and a Table-1 pairing.
* :func:`build_backend_rig` — the production stack of PRs 6-10 (sharded
  WAL to real files, read-through cache, ingest queue, risk stage,
  resolver chain, telemetry enabled); nine accounts in ten are paired.

Everything random comes from the seed, so one seed gives one population,
one set of token secrets and one exemption ACL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import time_step, totp_at
from repro.directory.identity import AccountClass
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.ssh import KeyPair, SSHClient
from repro.storage import StorageConfig

START = "2016-08-10T09:00:00"

#: Table 1 of the paper: share of pairings by device type.
TABLE1 = (("soft", 0.554), ("sms", 0.402), ("training", 0.030), ("hard", 0.014))

#: Login sources.  External addresses match no ACL rule; internal ones sit
#: in the system's own /24, which the pre-seeded first ACL rule exempts.
EXTERNAL_IPS = tuple(f"198.51.100.{n}" for n in range(7, 15))
INTERNAL_IPS = tuple(f"10.3.1.{n}" for n in range(20, 84))

#: One account in five is active: it has a password and logs in.  The rest
#: are the dormant majority of a >10,000-account center — they still fill
#: the directory and the token table, which is what the login path scans.
ACTIVE_EVERY = 5
ACL_RULES = 200
GATEWAYS = 20
MASTERS = 64
LOCKED_USERS = 20
WRONG_CODE_USERS = 3
SMS_WAIT = 6.0  # virtual seconds a user waits for a text (carrier max is 5)

STORAGE = dict(shards=4, durability=True, cache_capacity=2048, snapshot_every=5000)


@dataclass
class User:
    """What one account holder knows: name, password and device."""

    name: str
    uid: str
    kind: str  # soft | sms | training | hard | unpaired
    password: str = ""
    secret: bytes = b""  # TOTP seed on the user's device (soft/hard)
    phone: str = ""
    static_code: str = ""
    skew: float = 0.0  # device clock minus server clock, seconds


def wrong_code(secret: bytes, device_now: float) -> str:
    """A six-digit code the validator cannot accept for this device.

    The server searches ten steps either side of where it believes the
    device clock is, so "right code plus one" is accepted about once in
    50,000 tries; a benchmark that runs millions of them must exclude the
    whole window, not hope.
    """
    step = time_step(device_now)
    window = {totp_at(secret, 30.0 * s) for s in range(step - 14, step + 15)}
    value = int(totp_at(secret, device_now))
    while f"{value:06d}" in window:
        value = (value + 1) % 10**6
    return f"{value:06d}"


def not_code(code: str) -> str:
    """A wrong answer where exactly one code is valid (SMS, static)."""
    return f"{(int(code) + 1) % 10**6:06d}"


@dataclass
class Rig:
    center: MFACenter
    clock: VirtualClock
    users: List[User]
    system: Optional[object] = None
    by_kind: Dict[str, List[User]] = field(default_factory=dict)
    position: Dict[str, int] = field(default_factory=dict)  # name -> index in users
    radius_clients: list = field(default_factory=list)
    ssh_clients: list = field(default_factory=list)  # the workload's own SSHClients
    wal_dir: Optional[str] = None
    active: List[User] = field(default_factory=list)  # accounts with a password
    # login_bypass extras
    keys: Dict[str, KeyPair] = field(default_factory=dict)
    key_users: List[User] = field(default_factory=list)
    gateways: List[User] = field(default_factory=list)
    mux_client: Optional[SSHClient] = None
    masters: List[User] = field(default_factory=list)
    # production-stack extras
    locked: List[User] = field(default_factory=list)
    admin_api: Optional[AdminAPI] = None
    admin: Optional[AdminAPIClient] = None
    hard_secrets: Dict[str, bytes] = field(default_factory=dict)

    def describe(self) -> dict:
        """The ``rig`` block: what was built, for the output record."""
        center = self.center
        counts = {kind: len(users) for kind, users in sorted(self.by_kind.items())}
        return {
            "accounts": len(self.users),
            "active_accounts": len(self.active),
            "pairings": counts,
            "radius_servers": len(center.radius_servers),
            "storage": dict(STORAGE, wal_dir="<out>") if self.wal_dir else "in-memory",
            "telemetry": bool(center.telemetry.enabled),
            "ingest": center.ingest_queue is not None,
            "risk": center.risk_stage is not None,
            "resolvers": center.resolver_chain is not None,
            "acl_rules": len(self.system.acl.rules()) if self.system else 0,
        }

    def close(self) -> None:
        """Release the WAL file handles (the files are the caller's)."""
        if self.wal_dir is not None:
            for shard in wal_shards(self.center):
                shard.wal.close()


def wal_shards(center: MFACenter) -> list:
    """The per-shard WAL engines of a durable sharded stack."""
    from repro.storage import find_layer

    sharded = find_layer(center.otp.db.engine, "shard_sizes")
    return list(sharded.shards) if sharded is not None else []


def quotas(total: int, shares) -> Dict[str, int]:
    """Split ``total`` by ``shares`` exactly (largest remainder)."""
    weight = sum(share for _, share in shares)
    raw = [(name, total * share / weight) for name, share in shares]
    counts = {name: int(value) for name, value in raw}
    leftovers = sorted(raw, key=lambda item: item[1] - int(item[1]), reverse=True)
    for name, _ in leftovers[: total - sum(counts.values())]:
        counts[name] += 1
    return counts


def _pair(center: MFACenter, rng: random.Random, users: List[User]) -> None:
    """Pair ``users`` in the Table-1 mix; device secrets land on the users."""
    order = list(users)
    rng.shuffle(order)
    counts = quotas(len(order), TABLE1)
    batch = center.receive_hard_batch(max(1, counts["hard"]))
    serials = batch.serials()
    position = 0
    for kind, _ in TABLE1:
        for user in order[position : position + counts[kind]]:
            user.kind = kind
            if kind == "soft":
                _, user.secret = center.pair_soft(user.name)
            elif kind == "sms":
                user.phone = f"512{5550000 + int(user.name[1:]):07d}"
                center.pair_sms(user.name, user.phone)
            elif kind == "training":
                user.static_code = center.pair_training(user.name)
            else:
                serial = serials.pop()
                user.secret = batch.secret_for(serial)
                center.pair_hard(user.name, serial)
        position += counts[kind]


def _index(rig: Rig) -> None:
    rig.by_kind = {}
    for user in rig.users:
        rig.by_kind.setdefault(user.kind, []).append(user)
    rig.position = {user.name: n for n, user in enumerate(rig.users)}


def build_login_rig(seed: int, accounts: int, bypass: bool = False) -> Rig:
    """The default center at the paper's population, every account paired."""
    clock = VirtualClock.at(START)
    center = MFACenter(clock=clock, rng=random.Random(seed))
    # Outcomes must not depend on the order of RNG draws: no carrier stalls.
    center.sms_gateway.carrier.stall_probability = 0.0
    # The only public seam that sees the login nodes' RADIUS clients is the
    # factory the systems call; remember what it hands out for the tracer.
    clients: list = []
    make_client = center.new_radius_client

    def remember(source_ip: str):
        client = make_client(source_ip)
        clients.append(client)
        return client

    center.new_radius_client = remember
    system = center.add_system("stampede", mode="full")
    rng = random.Random(f"loginbench:{seed}:population")
    users = []
    for n in range(accounts):
        name = f"u{n:05d}"
        gateway = bypass and n < GATEWAYS
        password = f"pw-{name}" if gateway or n % ACTIVE_EVERY == 0 else ""
        account = center.create_user(
            name,
            password=password,
            account_class=AccountClass.GATEWAY if gateway else AccountClass.INDIVIDUAL,
        )
        users.append(User(name, account.uid, "unpaired", password=password))
    _pair(center, rng, users)
    rig = Rig(center, clock, users, system=system, radius_clients=clients)
    rig.active = [user for user in users if user.password]
    _index(rig)
    if bypass:
        _add_bypass_traffic(rig, rng)
    return rig


def _add_bypass_traffic(rig: Rig, rng: random.Random) -> None:
    """Exemption ACL, authorized keys and live masters for ``login_bypass``."""
    system, users = rig.system, rig.users
    rig.gateways = users[:GATEWAYS]
    others = [user for user in rig.active if user not in rig.gateways]
    # 199 rules behind the pre-seeded internal-subnet grant: gateway
    # accounts spread evenly through per-user /32 variances (live and
    # expired), partner CIDR ranges and a few denials.  External gateway
    # logins walk the list to their rule; internal traffic stops at rule 1.
    extra = ACL_RULES - 1
    gateway_slots = {
        (k + 1) * extra // (len(rig.gateways) + 1): user
        for k, user in enumerate(rig.gateways)
    }
    for slot in range(extra):
        if slot in gateway_slots:
            system.add_exemption(accounts=gateway_slots[slot].name)
        elif slot % 4 == 0:
            system.add_exemption(origins=f"129.114.{slot}.0/24")
        elif slot % 4 == 1:
            system.add_exemption(
                accounts=rng.choice(others).name,
                origins=f"203.0.113.{slot}",
                expiry="2016-12-31",
            )
        elif slot % 4 == 2:
            system.add_exemption(
                accounts=rng.choice(others).name,
                origins=f"192.0.2.{slot}",
                expiry="2016-01-31",  # an expired temporary variance
            )
        else:
            system.add_denial(origins=f"203.0.113.{slot}/32")
    rig.key_users = rng.sample(others, max(1, len(others) // 20))
    for user in rig.key_users:
        rig.keys[user.name] = KeyPair.generate(user.name, rng=rng)
        for daemon in system.daemons:
            daemon.authorize_key(user.name, rig.keys[user.name])
    # Live ControlMaster connections: opened from inside (exempt), so the
    # multiplexed channels of the workload attach without authentication.
    rig.mux_client = SSHClient(INTERNAL_IPS[0], multiplex=True)
    rig.masters = rng.sample(others, min(MASTERS, len(others)))
    for user in rig.masters:
        result, _ = rig.mux_client.connect(
            system.login_node(0), user.name, password=user.password
        )
        if not result.success:
            raise RuntimeError(f"could not open a master for {user.name}")


def build_backend_rig(seed: int, accounts: int, wal_dir: str, admin: bool = False) -> Rig:
    """The PR 6-10 production stack; one account in ten stays unpaired."""
    clock = VirtualClock.at(START)
    center = MFACenter(
        clock=clock,
        rng=random.Random(seed),
        storage=StorageConfig(wal_dir=wal_dir, **STORAGE),
        ingest=True,
        risk=True,
        resolvers=True,
        telemetry=True,
    )
    center.sms_gateway.carrier.stall_probability = 0.0
    rng = random.Random(f"loginbench:{seed}:population")
    users = []
    for n in range(accounts):
        name = f"u{n:05d}"
        account = center.create_user(name)
        users.append(User(name, account.uid, "unpaired"))
    paired = users[: accounts * 9 // 10]
    _pair(center, rng, paired)
    for user in paired:
        if user.kind in ("soft", "hard"):
            user.skew = rng.choice((-90.0, -60.0, -30.0, 0.0, 30.0, 60.0, 90.0))
    rig = Rig(center, clock, users, wal_dir=wal_dir)
    _index(rig)
    # A few accounts arrive already deactivated by the 20-strike rule.
    rig.locked = rig.by_kind["soft"][:LOCKED_USERS]
    threshold = center.otp.config.lockout_threshold
    for user in rig.locked:
        wrong = wrong_code(user.secret, clock.now() + user.skew)
        for _ in range(threshold):
            center.radius_backend.validate(user.name, wrong)
        if not center.otp.is_locked(user.uid):
            raise RuntimeError(f"{user.name} did not lock after {threshold} failures")
    if admin:
        rig.admin_api = AdminAPI(center.otp, rng=random.Random(seed + 1))
        rig.admin_api.add_admin("portal", "portal-secret")
        rig.admin = AdminAPIClient(
            rig.admin_api, "portal", "portal-secret", rng=random.Random(seed + 2)
        )
    return rig
