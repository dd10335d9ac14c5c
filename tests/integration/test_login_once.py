"""A login computes a value once, in the form it is used.

The guard for docs/ARCHITECTURE.md "Hot path": one warm first-try login on
a default deployment (telemetry off) is profiled, and the work the front
tier used to repeat must be absent — by name, not by a call-count budget
that every unrelated change would have to renegotiate.  The same profiles,
with an SMS login and a wrong-code login beside them, guard "Off means
absent": no telemetry function is entered and no stage is timed.
"""

import cProfile
import gc
import os
import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator, time_step, totp_at
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.pam.modules.token import MFATokenModule
from repro.ssh import SSHClient
from repro.storage import StorageConfig, find_layer
from repro.telemetry import trace
from repro.ssh.keys import KeyPair

SMS_PHONE = "5125550000"


class Profile(dict):
    """``{(file, function): calls}``, and ``edges``: ``{(caller, callee): calls}``
    over the same keys."""

    def __init__(self):
        super().__init__()
        self.edges = {}


def where(code):
    """A profile key: a file of this package by its path inside it
    (``radius/packet.py``), any other by its base name, a builtin as ``~``."""
    if isinstance(code, str):
        return ("~", code)
    path = code.co_filename.replace(os.sep, "/")
    _, package, inside = path.rpartition("/repro/")
    return (inside if package else os.path.basename(path), code.co_name)


def profile_second_call(login):
    """The :class:`Profile` of ``login(run)``'s ``run(...)``, the second time
    round (the first warms imports and first-use tables).  The collector is
    off while it runs: a collection there would add the frames of whatever
    ``gc.callbacks`` another test module left behind (Hypothesis registers
    one) to the login's count."""
    login(lambda function, *args, **kwargs: function(*args, **kwargs))
    profiler = cProfile.Profile()
    gc.disable()
    try:
        login(profiler.runcall)
    finally:
        gc.enable()
    calls = Profile()
    for entry in profiler.getstats():
        key = where(entry.code)
        calls[key] = calls.get(key, 0) + entry.callcount
        for callee in entry.calls or ():
            edge = (key, where(callee.code))
            calls.edges[edge] = calls.edges.get(edge, 0) + callee.callcount
    return calls


def soft_token_login():
    """A warm soft-token login from outside — password, then token — as the
    ``login(run)`` :func:`profile_second_call` takes."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="hunter2")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    client = SSHClient(source_ip="198.51.100.7")
    node = system.login_node()

    def login(run):
        clock.advance(31)  # a fresh TOTP step: no replay
        code = device.current_code()
        result, _ = run(client.connect, node, "alice", password="hunter2", token=code)
        assert result.success

    return login


@pytest.fixture(scope="module")
def login_profile():
    """One warm soft-token login from outside: password, then token."""
    return profile_second_call(soft_token_login())


@pytest.fixture(scope="module")
def pairing_probe_profile():
    """The token module's LDAP pairing lookup alone, in that login."""
    login = soft_token_login()
    original = MFATokenModule._pairing_type

    def probe_only(run):
        MFATokenModule._pairing_type = lambda self, name: run(original, self, name)
        try:
            login(lambda function, *args, **kwargs: function(*args, **kwargs))
        finally:
            MFATokenModule._pairing_type = original

    return profile_second_call(probe_only)


@pytest.fixture(scope="module")
def pubkey_profile():
    """One warm public-key connect from inside: Figure 4's commonest login."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="hunter2")
    key = KeyPair.generate("alice", rng=random.Random(7))
    node = system.login_node()
    node.authorize_key("alice", key)
    client = SSHClient(source_ip="10.3.1.20")  # the system's own /24: exempt

    def login(run):
        result, _ = run(client.connect, node, "alice", key=key)
        assert result.success
        assert result.session_items["first_factor"] == "publickey"

    return profile_second_call(login)


@pytest.fixture(scope="module")
def sms_profile():
    """One warm SMS login from outside: the null request, the text, the code."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810))
    system = center.add_system("stampede", mode="full")
    center.create_user("texter", password="pw-texter")
    center.pair_sms("texter", SMS_PHONE)
    client = SSHClient(source_ip="198.51.100.8")
    node = system.login_node()

    def read_text():
        clock.advance(20)
        return center.sms_gateway.latest(SMS_PHONE).body.split()[-1]

    def login(run):
        clock.advance(31)
        result, _ = run(
            client.connect, node, "texter", password="pw-texter", token=read_text
        )
        assert result.success

    return profile_second_call(login)


@pytest.fixture(scope="module")
def wrong_code_profile():
    """One warm soft-token login that types a wrong code at all three tries."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(20160810))
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="hunter2")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    client = SSHClient(source_ip="198.51.100.7")
    node = system.login_node()

    def login(run):
        clock.advance(31)
        wrong = f"{(int(device.current_code()) + 1) % 1_000_000:06d}"
        result, _ = run(client.connect, node, "alice", password="hunter2", token=wrong)
        assert not result.success and result.password_attempts == 3

    return profile_second_call(login)


def trainee_on_two_wal_shards(tmp_path_factory, **center_options):
    """A center on two WAL-logged shards written to disk, and the static code
    of its one training account."""
    center = MFACenter(
        clock=VirtualClock.at("2016-10-05T09:00:00"),
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=2, durability=True,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        **center_options,
    )
    center.create_user("trainee", password="pw-trainee")
    return center, center.pair_training("trainee", "424242")


@pytest.fixture(scope="module")
def durable_queue_profile(tmp_path_factory):
    """A warm wrong code, then the right one, straight to the back end on the
    durable, queued stack (two WAL-logged shards to disk behind the ingest
    queue), telemetry off: each validate is serviced by the queue and writes
    the token row (``failcount`` 1, then 0), so both reach the WAL."""
    center, code = trainee_on_two_wal_shards(tmp_path_factory, ingest=True)
    assert center.radius_backend.validate("trainee", code).ok  # confirms the pairing

    def login(run):
        assert not run(center.radius_backend.validate, "trainee", "000000").ok
        assert run(center.radius_backend.validate, "trainee", code).ok

    return profile_second_call(login)


#: Every profile above, by fixture name.
PROFILES = (
    "login_profile",
    "pubkey_profile",
    "sms_profile",
    "wrong_code_profile",
    "durable_queue_profile",
)


@pytest.fixture(scope="module")
def admin_init_profile(tmp_path_factory):
    """One warm ``/admin/init`` of a soft token on the production storage
    stack: four WAL-logged shards to disk under a read-through cache,
    telemetry on."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=64,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        telemetry=True,
    )
    uids = [center.create_user(name).uid for name in ("alice", "bob")]
    api = AdminAPI(center.otp, rng=random.Random(1))
    api.add_admin("portal", "portal-secret")
    admin = AdminAPIClient(api, "portal", "portal-secret", rng=random.Random(2))

    def init(run):
        body = run(admin.call, "POST", "/admin/init", {"user": uids.pop(), "type": "soft"})
        assert body["serial"]

    return profile_second_call(init)


def test_a_storage_op_runs_no_per_column_call(admin_init_profile):
    """docs/ARCHITECTURE.md "Storage engines": a row's columns are encoded,
    copied and routed inside C calls, and a WAL record is rendered by one
    encoder built once."""
    assert count(admin_init_profile, "storage/wal.py", "encode_value") == 0
    assert count(admin_init_profile, "storage/sharding.py", "_routed_columns") == 0
    assert admin_init_profile.get(("encoder.py", "__init__"), 0) == 0  # json's
    # ... and the layers those zeros speak for did run.
    assert count(admin_init_profile, "storage/wal.py", "encode_row") >= 1
    assert count(admin_init_profile, "storage/sharding.py", "insert") >= 1
    assert count(admin_init_profile, "storage/memory.py", "insert") >= 1


def digest_frames(profile):
    """``{function: calls}`` of the profile's frames in ``crypto/digest_auth.py``."""
    return {
        name: n for (file, name), n in profile.items()
        if _is(file, "crypto/digest_auth.py")
    }


def test_an_admin_request_makes_one_md5_per_side(admin_init_profile):
    """docs/ARCHITECTURE.md "Pairing path": a route's HA2 is hashed once, at
    import, so a warm request hashes only its response digest, once on the
    client and once on the server."""
    assert builtin(admin_init_profile, "openssl_md5") == 2
    assert "ha2" not in digest_frames(admin_init_profile)
    assert "_h" not in digest_frames(admin_init_profile)


@pytest.fixture(scope="module")
def admin_show_profile():
    """One warm ``/admin/show`` of a paired user."""
    center = MFACenter(clock=VirtualClock.at("2016-10-05T09:00:00"), rng=random.Random(20160810))
    uid = center.create_user("alice").uid
    api = AdminAPI(center.otp, rng=random.Random(1))
    api.add_admin("portal", "portal-secret")
    admin = AdminAPIClient(api, "portal", "portal-secret", rng=random.Random(2))
    admin.call("POST", "/admin/init", {"user": uid, "type": "soft"})

    def show(run):
        (token,) = run(admin.call, "GET", "/admin/show", {"user": uid})["tokens"]
        assert token["type"] == "soft"

    return profile_second_call(show)


def test_a_warm_admin_request_signs_and_verifies_in_four_frames(admin_show_profile):
    """The client signs under its last nonce and the server verifies: one
    response digest each, HA2 read from the route table on both sides."""
    assert digest_frames(admin_show_profile) == {
        "reuse": 1, "verify": 1, "digest_response": 2,
    }
    assert builtin(admin_show_profile, "openssl_md5") == 2


@pytest.fixture(scope="module")
def admin_remove_profile(tmp_path_factory):
    """One warm ``/admin/remove`` (``OTPServer.unpair``, a transaction) on
    loginbench's ``admin_churn`` storage stack: four WAL-logged shards to
    disk under a read-through cache, telemetry on."""
    center = MFACenter(
        clock=VirtualClock.at("2016-10-05T09:00:00"),
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=2048, snapshot_every=5000,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        telemetry=True,
    )
    uids = [center.create_user(name).uid for name in ("alice", "bob")]
    api = AdminAPI(center.otp, rng=random.Random(1))
    api.add_admin("helpdesk", "helpdesk-secret")
    admin = AdminAPIClient(api, "helpdesk", "helpdesk-secret", rng=random.Random(2))
    for uid in uids:
        admin.call("POST", "/admin/init", {"user": uid, "type": "soft"})
    sharded = find_layer(center.otp.db.engine, "shard_sizes")

    def remove(run):
        uid = uids.pop()
        (token,) = center.otp.db.engine.select("tokens", where={"user_id": uid})
        # The block reads and deletes the token row and probes the user's
        # SMS challenge row: those two rows' shards are all it touches.
        touched.append(len({
            sharded._shard_of("tokens", token["serial"]),
            sharded._shard_of("challenges", uid),
        }))
        body = run(admin.call, "POST", "/admin/remove", {"user": uid})
        assert body["removed"] == 1

    touched = []
    profile = profile_second_call(remove)
    profile.shards_touched = touched[-1]
    return profile


def test_a_transaction_is_one_begin_and_one_commit_per_layer(admin_remove_profile):
    """docs/ARCHITECTURE.md "Storage engines": a block is one ``begin`` on
    the way in and one ``commit`` on the way out, per layer and per shard it
    touches, with no generator context manager or ``ExitStack`` between
    them."""
    assert not any(_is(file, "contextlib.py") for file, _ in admin_remove_profile)
    touched = admin_remove_profile.shards_touched
    assert touched < 4  # so a block that began every shard would show
    for layer, calls in (
        ("instrument.py", 1), ("cache.py", 1), ("sharding.py", 1),
        ("wal.py", touched), ("memory.py", touched),  # one per shard touched
    ):
        assert count(admin_remove_profile, f"storage/{layer}", "begin") == calls
        assert count(admin_remove_profile, f"storage/{layer}", "commit") == calls
    assert count(admin_remove_profile, "storage/sharding.py", "_rebuild_routes") == 0
    # ... the block did its work (the token row left), and all of it,
    # transaction included, is at most 230 calls (~257 beginning and
    # committing every shard, ~340 with a generator context manager per
    # layer and shard as well).
    assert count(admin_remove_profile, "storage/wal.py", "delete") == 1
    assert sum(admin_remove_profile.values()) <= 230


@pytest.fixture(scope="module")
def token_update_profile(tmp_path_factory):
    """One warm lone token-row update (a failure count written back) on
    loginbench's production storage stack: four WAL-logged shards to disk
    under a read-through cache, telemetry on."""
    center = MFACenter(
        clock=VirtualClock.at("2016-10-05T09:00:00"),
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=2048, snapshot_every=5000,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        telemetry=True,
    )
    center.create_user("alice")
    center.pair_soft("alice")
    (token,) = center.otp.db.engine.select(
        "tokens", where={"user_id": center.uid_of("alice")}
    )
    failcounts = iter(range(1, 10))

    def update(run):
        run(center.otp.tokens.update, token["serial"], {"failcount": next(failcounts)})

    return profile_second_call(update)


def test_a_lone_token_row_update_finds_its_shard_in_one_frame(token_update_profile):
    """docs/ARCHITECTURE.md "Storage engines": a keyed op finds its table
    with a subscript and its shard in one frame, and a WAL record renders
    through one prebuilt C encoder.  The whole update is at most 50 calls
    (~57 with a ``schema()`` frame, a ``HashRing`` hop and a ``stable_hash``
    frame per keyed op, and ``JSONEncoder.encode`` per record)."""
    assert count(token_update_profile, "storage/sharding.py", "_shard_of") == 1
    for retired in ("schema", "shard_for", "stable_hash"):
        assert count(token_update_profile, "storage/sharding.py", retired) == 0
    assert token_update_profile.get(("encoder.py", "encode"), 0) == 0  # json's
    assert count(token_update_profile, "storage/wal.py", "update") == 1
    assert sum(token_update_profile.values()) <= 50


@pytest.fixture(scope="module")
def admin_resync_profile(tmp_path_factory):
    """One warm ``/admin/resync`` on loginbench's ``admin_churn`` storage
    stack, from a device's next two codes: the pair sits one step ahead of
    the server's step, as in the benchmark's ``resync`` op."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(
        clock=clock,
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=2048, snapshot_every=5000,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        telemetry=True,
    )
    uids = [center.create_user(name).uid for name in ("alice", "bob")]
    api = AdminAPI(center.otp, rng=random.Random(1))
    api.add_admin("helpdesk", "helpdesk-secret")
    admin = AdminAPIClient(api, "helpdesk", "helpdesk-secret", rng=random.Random(2))
    secrets = {
        uid: bytes.fromhex(
            admin.call("POST", "/admin/init", {"user": uid, "type": "soft"})["otpkey"]
        )
        for uid in uids
    }

    def resync(run):
        uid = uids.pop()
        step = time_step(clock.now())
        params = {
            "user": uid,
            "otp1": totp_at(secrets[uid], 30.0 * (step + 1)),
            "otp2": totp_at(secrets[uid], 30.0 * (step + 2)),
        }
        assert run(admin.call, "POST", "/admin/resync", params)["resynced"]

    return profile_second_call(resync)


#: ``admin_resync_profile``'s calls with the per-step scan: three one-shot
#: ``hotp`` calls for the center pair and the pair one step out.
RESYNC_CALLS_AT_THE_PER_STEP_SCAN = 125


def test_a_near_center_resync_costs_no_more_than_per_step_probes(admin_resync_profile):
    """A resync probes the center pair with ``hotp``, then scans outward in
    prepared-key rings; a pair one step out costs no more calls than the
    per-step scan's three one-shot ``hotp``s did (and the unseal before it
    is cheaper)."""
    assert count(admin_resync_profile, "crypto/hotp.py", "hotp") == 1
    assert count(admin_resync_profile, "crypto/totp.py", "resync_step") == 1
    assert sum(admin_resync_profile.values()) <= RESYNC_CALLS_AT_THE_PER_STEP_SCAN


@pytest.fixture(scope="module")
def warm_success_profile(tmp_path_factory):
    """One warm valid validate on the production storage stack: two
    WAL-logged shards to disk, telemetry on.  The profiled success follows
    one that already confirmed the pairing with no failure since."""
    center, code = trainee_on_two_wal_shards(tmp_path_factory, telemetry=True)

    def validate(run):
        assert run(center.radius_backend.validate, "trainee", code).ok

    return profile_second_call(validate)


def test_a_warm_success_writes_nothing(warm_success_profile):
    """docs/ARCHITECTURE.md "Storage engines": a success writes only the token
    columns that differ from the row it read, and a warm one differs in none."""
    assert count(warm_success_profile, "storage/wal.py", "append") == 0
    assert count(warm_success_profile, "storage/sharding.py", "update") == 0
    assert count(warm_success_profile, "storage/memory.py", "update") == 0
    # ... and the row those zeros speak for was read.
    assert count(warm_success_profile, "storage/memory.py", "select") == 1


def validate_backend_center(tmp_path_factory, clock):
    """loginbench's ``validate_backend`` stack: four WAL-logged shards to
    disk under a read-through cache, the ingest queue, risk, the resolver
    chain and telemetry on."""
    return MFACenter(
        clock=clock,
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=2048, snapshot_every=5000,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        ingest=True, risk=True, resolvers=True, telemetry=True,
    )


@pytest.fixture(scope="module")
def backend_trainee(tmp_path_factory):
    """The ``validate_backend`` stack with one account and a valid code for it."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = validate_backend_center(tmp_path_factory, clock)
    center.create_user("trainee", password="pw-trainee")
    return center, center.pair_training("trainee", "424242")


@pytest.fixture(scope="module")
def telemetry_on_profile(backend_trainee):
    """One warm valid validate on loginbench's ``validate_backend`` stack."""
    center, code = backend_trainee

    def validate(run):
        assert run(center.radius_backend.validate, "trainee", code).ok

    return profile_second_call(validate)


def test_telemetry_on_updates_the_stage_histogram_once(telemetry_on_profile):
    """docs/ARCHITECTURE.md "Telemetry": a pipeline run hands its stage times
    to the histogram in one batch, not one observation per stage."""
    run = ("authflow/pipeline.py", "run")
    edges = telemetry_on_profile.edges
    assert edges.get((run, ("telemetry/metrics.py", "_observe")), 0) == 0
    assert edges.get((run, ("telemetry/metrics.py", "_observe_run")), 0) == 1


def test_a_span_pays_for_no_stack_lookup(telemetry_on_profile):
    """A span is its own ``with`` handle and reads its thread's open spans
    as a plain attribute: no wrapper object, no property, no ``getattr``."""
    assert not hasattr(trace, "_SpanContext")
    assert not hasattr(trace.Tracer, "_stack")
    getattrs = sum(
        n
        for (caller, callee), n in telemetry_on_profile.edges.items()
        if caller[0] == "telemetry/trace.py" and callee[0] == "~" and "getattr" in callee[1]
    )
    assert getattrs == 0
    # ... and the one span those zeros speak for was opened and closed.
    assert count(telemetry_on_profile, "telemetry/trace.py", "span") == 1
    assert count(telemetry_on_profile, "telemetry/trace.py", "__exit__") == 1


def perf_rig_login(telemetry):
    """``benchmarks/test_perf_telemetry.py``'s rig: a warm soft-token login
    from outside, the device's code read at the prompt."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = MFACenter(clock=clock, rng=random.Random(1), telemetry=telemetry)
    system = center.add_system("stampede", mode="full")
    center.create_user("alice", password="pw")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    client = SSHClient("198.51.100.7")
    node = system.login_node()

    def login(run):
        clock.advance(31)
        result, _ = run(client.connect, node, "alice", password="pw", token=device.current_code)
        assert result.success

    return login


@pytest.fixture(scope="module")
def traced_login_profile():
    """One warm soft-token SSH login on ``MFACenter(telemetry=True)``."""
    return profile_second_call(perf_rig_login(True))


@pytest.fixture(scope="module")
def untraced_login_profile():
    """... and its telemetry-off twin."""
    return profile_second_call(perf_rig_login(None))


#: What telemetry adds to that login, in interpreter calls: nine spans, 58
#: (each an open, an ``__init__``, a stack push, a child link but for the
#: root, a close and its pop; five of them entered by ``with``); 22 more
#: clock reads (span opens and closes, the pipeline's stage boundaries); ten
#: counter and three histogram updates, 26 (each the update and its lock
#: release); the root's one lock section, 2 (the release and the ring
#: append); and the storage timing layer's ``select`` frame.
TRACED_LOGIN_TAX = 109


def test_a_traced_login_pays_once_per_fact(traced_login_profile, untraced_login_profile):
    """docs/ARCHITECTURE.md "Telemetry": a traced login pays only for the
    facts it records — no label set is normalized, no instrument is looked
    up, no attribute is written through a frame, no span open takes a lock."""
    calls = traced_login_profile
    total = sum(calls.values())
    assert total <= 355
    assert total - sum(untraced_login_profile.values()) == TRACED_LOGIN_TAX
    assert count(calls, "telemetry/metrics.py", "label_key") == 0
    assert count(calls, "telemetry/registry.py", "counter") == 0
    assert [
        edge for edge, n in calls.edges.items()
        if edge[0][0].startswith("pam/") and edge[1][0] == "telemetry/registry.py"
    ] == []
    assert count(calls, "telemetry/trace.py", "annotate") == 0
    span_locks = sum(
        n
        for (caller, callee), n in calls.edges.items()
        if caller == ("telemetry/trace.py", "span") and "lock" in callee[1]
    )
    assert span_locks == 0
    # ... and what those zeros speak for ran: nine spans in one tree, closed
    # under one lock section, and every instrument update.
    assert count(calls, "telemetry/trace.py", "span") == 9
    assert count(calls, "telemetry/trace.py", "__exit__") == 9
    close_locks = sum(
        n
        for (caller, callee), n in calls.edges.items()
        if caller == ("telemetry/trace.py", "__exit__") and "lock" in callee[1]
    )
    assert close_locks == 1
    assert count(calls, "telemetry/metrics.py", "_add") == 10
    assert count(calls, "telemetry/metrics.py", "_observe") == 2
    assert count(calls, "telemetry/metrics.py", "_observe_run") == 1


@pytest.fixture(scope="module")
def soft_success_profile(tmp_path_factory):
    """One warm valid soft-token validate on the ``validate_backend`` stack,
    each at a fresh TOTP step: never a replay.  A mistyped code came first,
    so the risk engine holds a recent failure for the account and scores its
    failure burst; the profiled validate hits the resolver cache and writes
    nothing (the warm-up success reset the failure count)."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = validate_backend_center(tmp_path_factory, clock)
    center.create_user("alice", password="pw-alice")
    _, secret = center.pair_soft("alice")
    device = TOTPGenerator(secret=secret, clock=clock)
    mistyped = f"{(int(device.current_code()) + 500_000) % 10**6:06d}"
    assert not center.radius_backend.validate("alice", mistyped).ok

    def validate(run):
        clock.advance(31)
        assert run(center.radius_backend.validate, "alice", device.current_code()).ok

    return profile_second_call(validate)


#: Frames a valid validate used to enter only to forward to the next frame
#: or to recompute a constant: ``Layer.select``, the stripe's blake2b hash,
#: the idle queue's heap length, class policy, request classification and
#: zero-wait accounting, the span close's second frame and the TOTP window
#: property.
FORWARDING_FRAMES = (
    ("storage/engine.py", "select"),
    ("authflow/locks.py", "stripe_for"),
    ("storage/sharding.py", "stable_hash"),
    ("ingest/priority.py", "__len__"),
    ("ingest/priority.py", "policy_for"),
    ("ingest/queue.py", "classify_request"),
    ("ingest/queue.py", "observe_wait"),
    ("telemetry/trace.py", "_finish"),
    ("crypto/totp.py", "window"),
)
#: ... and the ones only one caller paid: ``OTPServer.validate``'s span
#: attributes and ``ApplyOutcome``'s ``ok`` property.
FORWARDING_EDGES = (
    (("otpserver/server.py", "validate"), ("telemetry/trace.py", "annotate")),
    (("authflow/stages.py", "run"), ("common/results.py", "ok")),
)


@pytest.mark.parametrize(
    "profile", ["telemetry_on_profile", "durable_queue_profile", "soft_success_profile"]
)
def test_a_valid_validate_runs_no_frame_that_only_forwards(request, profile):
    """docs/ARCHITECTURE.md "Hot path": each layer of a valid validate pays
    only for what it decides, records or computes — a storage layer costs
    no frame for an op it does not declare."""
    calls = request.getfixturevalue(profile)
    assert [frame for frame in FORWARDING_FRAMES if count(calls, *frame)] == []
    assert [edge for edge in FORWARDING_EDGES if calls.edges.get(edge)] == []
    # ... and the layers those zeros speak for ran.
    assert count(calls, "authflow/locks.py", "lock_for") >= 1
    assert count(calls, "ingest/queue.py", "_run") >= 1
    assert count(calls, "storage/memory.py", "select") >= 1
    assert count(calls, "policy/engine.py", "_evaluate") >= 1


#: Who may ask the clock during a warm traced validate that hits the
#: resolver cache and writes nothing: the pipeline once per stage boundary
#: (six stages), the storage timing layer around the token-row read, and
#: the ``otp.validate`` span's open (its end is the pipeline's last
#: boundary read).
CLOCK_READERS = {
    "authflow/pipeline.py": 7,
    "storage/instrument.py": 2,
    "telemetry/trace.py": 1,
}


def test_a_traced_validate_reads_the_clock_once_per_stage(soft_success_profile):
    """docs/ARCHITECTURE.md "Telemetry": with telemetry on, each stage takes
    its instant from the pipeline's boundary read; the resolver chain, the
    policy and risk engines, the TOTP validator and the audit log ask no
    clock of their own."""
    calls = soft_success_profile
    readers = {}
    for (caller, callee), n in calls.edges.items():
        if callee == ("common/clock.py", "now"):
            readers[caller[0]] = readers.get(caller[0], 0) + n
    assert readers == CLOCK_READERS
    assert count(calls, "common/clock.py", "now") == 10
    # ... and the readers those zeros speak for ran.
    for frame in (
        ("resolvers/chain.py", "resolve"),
        ("policy/risk.py", "evaluate"),
        ("crypto/totp.py", "validate"),
        ("otpserver/audit.py", "record"),
    ):
        assert count(calls, *frame) >= 1, frame


def test_the_risk_engine_scores_and_counts_in_one_lock_section(soft_success_profile):
    """The failure-burst count runs under ``RiskEngine.evaluate``'s lock,
    not a second one of its own."""
    calls = soft_success_profile
    lock_exits = sum(
        n
        for (caller, callee), n in calls.edges.items()
        if caller[0] == "policy/risk.py" and callee[0] == "~"
        and "__exit__" in callee[1] and "lock" in callee[1]
    )
    assert lock_exits == 1
    assert count(calls, "policy/risk.py", "_recent_failures") == 1


def test_a_totp_check_computes_its_step_inline(soft_success_profile):
    """``TOTPValidator.validate`` takes the step of the stage's instant
    without a ``time_step`` frame."""
    assert count(soft_success_profile, "crypto/totp.py", "time_step") == 0
    assert count(soft_success_profile, "crypto/totp.py", "validate") == 1


def profile_cold_lookup(center, code, stage=None):
    """The profile of one warm valid validate whose resolver lookup misses
    its cache: the whole validate, or only the run of the stage named."""
    (target,) = [s for s in center.otp.pipeline.stages if s.name == stage] or [None]

    def validate(run):
        center.resolver_chain.invalidate("trainee")
        if target is None:
            assert run(center.radius_backend.validate, "trainee", code).ok
            return
        target.run = lambda ctx, original=target.run: run(original, ctx)
        try:
            assert center.radius_backend.validate("trainee", code).ok
        finally:
            del target.run

    return profile_second_call(validate)


def calls_made(profile):
    """Every call in ``profile`` but the profiler's own ``disable``."""
    return sum(n for (file, name), n in profile.items() if "'disable'" not in name)


def test_a_validate_finds_its_account_and_token_row_in_one_probe_per_layer(
    backend_trainee,
):
    """docs/ARCHITECTURE.md "The resolver chain" and "Storage engines": a
    route with no choice builds no candidate list and fills its cache in the
    lock section it already takes; the token-row read routes in the sharded
    layer's own frame, is timed with no helper frame, and is not re-checked
    against the index that answered it; the type decode is a dict probe."""
    calls = profile_cold_lookup(*backend_trainee)
    assert count(calls, "resolvers/chain.py", "_candidates") == 0
    assert count(calls, "resolvers/chain.py", "_cache_put") == 0
    assert count(calls, "storage/sharding.py", "_shards_for_query") == 0
    assert count(calls, "storage/sharding.py", "_route_shards") == 0
    assert count(calls, "storage/instrument.py", "_timed") == 0
    assert count(calls, "storage/memory.py", "<genexpr>") == 0
    # ... and the lookup and the read those zeros speak for did run.
    assert count(calls, "resolvers/base.py", "resolve") == 1
    for layer in ("instrument.py", "sharding.py", "memory.py"):
        assert count(calls, f"storage/{layer}", "select") == 1
    policy = profile_cold_lookup(*backend_trainee, stage="evaluate_policy")
    assert count(policy, "enum.py", "__call__") == 0
    assert count(policy, "policy/engine.py", "evaluate") == 1
    resolve = profile_cold_lookup(*backend_trainee, stage="resolve_identity")
    assert count(resolve, "resolvers/base.py", "resolve") == 1
    assert count(resolve, "resolvers/base.py", "split_realm") == 0  # a bare name
    assert calls_made(resolve) <= 45  # 45; 65 with those hops and `_user_tokens`


def count(profile, file_name, function):
    return sum(
        n
        for (file, name), n in profile.items()
        if _is(file, file_name) and name == function
    )


def _is(file, file_name):
    """``file`` is ``file_name``, given whole or as its base name."""
    return file == file_name or file.endswith("/" + file_name)


def test_no_enum_value_descriptor_round_trip(login_profile):
    # ``member.value`` is ``enum.property.__get__`` (``types.DynamicClassAttribute``
    # before 3.11) plus the ``value`` function behind it: two calls per read.
    assert count(login_profile, "enum.py", "__get__") == 0
    assert count(login_profile, "types.py", "__get__") == 0
    assert count(login_profile, "enum.py", "value") == 0


def test_the_uid_probe_never_reaches_the_filter_parser(
    login_profile, pairing_probe_profile
):
    """docs/ARCHITECTURE.md "The directory": the pairing lookup hands the
    directory its literal ``(attr, value)`` pairs; nothing is compiled."""
    assert count(login_profile, "ldap.py", "search") == 1
    assert count(pairing_probe_profile, "ldap.py", "search") == 1
    # The hit's values are read straight from its attribute dict: no
    # ``LDAPEntry.first`` / ``get`` accessor frames.
    assert count(pairing_probe_profile, "ldap.py", "first") == 0
    assert calls_made(pairing_probe_profile) <= 16  # 16; 19 through `first`, 23 through a compiled filter


def test_a_pam_run_screens_the_attempt_once(login_profile):
    """docs/ARCHITECTURE.md "Hot path: the front door": the exemption
    module's screen rides the PAM session into the token module's request,
    so one stack run walks the exemption ACL once (twice before)."""
    assert count(login_profile, "framework.py", "_run") == 1
    assert count(login_profile, "acl.py", "check") == 1
    assert count(login_profile, "policy/engine.py", "screen") == 1


@pytest.mark.parametrize("profile", PROFILES)
def test_a_pam_run_writes_no_trail(request, profile):
    """Per-module results are counted in ``pam_module_results_total`` (with
    telemetry on); the stack keeps no per-session trail."""
    assert count(request.getfixturevalue(profile), "framework.py", "record") == 0


def test_the_radius_codec_runs_no_per_byte_generator(login_profile):
    assert count(login_profile, "packet.py", "<genexpr>") == 0
    # RFC 2865's own four: hide, recover, sign the response, verify it.
    md5 = sum(n for (_, name), n in login_profile.items() if "openssl_md5" in name)
    assert md5 == 4


def test_a_healthy_round_trip_reads_no_circuit_and_no_attribute_by_type(login_profile):
    """docs/ARCHITECTURE.md "A login computes a value once": with every
    circuit closed and no deadline budget the client plans its attempts with
    no probe, state or clock read; a request is one concatenation of
    attribute bytes and a reply one scan, so no packet object is filled or
    queried attribute by attribute."""
    assert count(login_profile, "resilience.py", "probe_due") == 0
    assert count(login_profile, "common/resilience.py", "state") == 0
    assert count(login_profile, "clock.py", "deadline") == 0
    assert count(login_profile, "clock.py", "__init__") == 0  # a Deadline's
    assert count(login_profile, "clock.py", "expired") == 0
    for method in ("add", "get", "get_str"):
        assert count(login_profile, "packet.py", method) == 0
    # ... and the round trip those zeros speak for ran: one request, one
    # reply, two attributes written by type on the request.
    assert count(login_profile, "radius/client.py", "_attempt_plan") == 1
    assert count(login_profile, "radius/packet.py", "encode") == 2
    assert count(login_profile, "radius/packet.py", "decode") == 2
    assert count(login_profile, "radius/packet.py", "tlv") == 2


def builtin(profile, fragment):
    return sum(n for (file, name), n in profile.items() if file == "~" and fragment in name)


def test_the_password_rounds_loop_inside_one_call(login_profile):
    assert builtin(login_profile, "pbkdf2_hmac") == 1
    assert builtin(login_profile, "openssl_sha256") == 0


@pytest.fixture(scope="module")
def backend_soft_token(tmp_path_factory):
    """The ``validate_backend`` stack with one soft token, and a code none
    of its drift window's 21 steps shows."""
    clock = VirtualClock.at("2016-10-05T09:00:00")
    center = validate_backend_center(tmp_path_factory, clock)
    center.create_user("alice", password="pw-alice")
    _, secret = center.pair_soft("alice")
    now = time_step(clock.now())
    window = {totp_at(secret, 30.0 * s) for s in range(now - 10, now + 11)}
    wrong = next(c for c in (f"{n:06d}" for n in range(10**6)) if c not in window)
    return center, wrong


@pytest.fixture(scope="module")
def backend_wrong_code_profile(backend_soft_token):
    """One warm wrong-code validate on the ``validate_backend`` stack."""
    center, wrong = backend_soft_token

    def validate(run):
        assert not run(center.radius_backend.validate, "alice", wrong).ok

    return profile_second_call(validate)


@pytest.fixture(scope="module")
def unseal_profile(backend_soft_token):
    """One warm unseal of the soft token's stored secret."""
    center, _ = backend_soft_token
    (row,) = center.otp.tokens.select(where={"user_id": center.uid_of("alice")})
    return profile_second_call(
        lambda run: run(center.otp._sealer.unseal, row["sealed_secret"])
    )


def test_a_wrong_code_macs_its_window_in_one_pass(backend_wrong_code_profile):
    """docs/ARCHITECTURE.md "Hot path": a miss probes the center step with
    one ``hotp`` and MACs the other 20 steps under one prepared key, not one
    one-shot ``hmac.digest`` per step."""
    assert count(backend_wrong_code_profile, "crypto/hotp.py", "hotp") <= 1
    assert count(backend_wrong_code_profile, "hmac.py", "digest") <= 1
    # ... and the window those counts speak for was MACed: one pass for it,
    # one for the unseal before it.
    assert count(backend_wrong_code_profile, "crypto/mac.py", "macs") == 2


def test_an_unseal_macs_under_the_prepared_master_key(unseal_profile):
    """The sealer's master key is prepared once: an unseal MACs its tag and
    keystream in one kernel pass and no one-shot ``hmac.digest``."""
    assert count(unseal_profile, "hmac.py", "digest") == 0
    assert count(unseal_profile, "crypto/mac.py", "macs") == 1


def test_an_idle_queue_validate_runs_on_its_callers_thread(durable_queue_profile):
    """docs/ARCHITECTURE.md "Admission control & SLA tiers": a validate that
    finds the ingest queue idle builds no ticket and no work item, takes no
    heap round trip and reads no clock in the queue."""
    calls = durable_queue_profile
    for method in ("__init__", "result", "resolve"):  # the Ticket's
        assert count(calls, "common/results.py", method) == 0
    for method in ("push", "pop", "__post_init__"):  # the heap's; a WorkItem's
        assert count(calls, "ingest/priority.py", method) == 0

    def from_queue(callee):
        return sum(
            n
            for (caller, target), n in calls.edges.items()
            if caller[0] == "ingest/queue.py" and target == callee
        )

    assert from_queue(("<string>", "__init__")) == 0  # a dataclass __init__
    assert from_queue(("common/clock.py", "now")) == 0
    # ... and both validates went through the queue's one service routine,
    # straight from the queue's own ``validate``: the RADIUS server's back
    # end is the queue, with no adapter frame and no ``call`` between.
    assert count(calls, "ingest/queue.py", "validate") == 2
    validate = ("ingest/queue.py", "validate")
    assert calls.edges.get((validate, ("ingest/queue.py", "_run"))) == 2
    assert {name for file, name in calls if file == "ingest/queue.py"} == {
        "validate", "_run",
    }


def test_a_public_key_connect_draws_once_and_derives_once(pubkey_profile):
    for file in ("daemon.py", "keys.py", "secrets.py", "ids.py"):
        assert count(pubkey_profile, file, "<genexpr>") == 0
    assert builtin(pubkey_profile, "getrandbits") == 1  # the 32-octet challenge
    # The ``public_key`` line is the key's field, derived when it was made:
    # the connect's one SHA-256 is the fingerprint's digest of it (the
    # property, and the function of the same name behind it).
    assert count(pubkey_profile, "keys.py", "public_key") == 0
    assert builtin(pubkey_profile, "openssl_sha256") == 1
    assert count(pubkey_profile, "keys.py", "fingerprint") == 2
    # Signing is the one-shot ``hmac.digest``, not an ``HMAC`` object.
    assert count(pubkey_profile, "keys.py", "sign") == 2  # client, verifier
    assert count(pubkey_profile, "hmac.py", "__init__") == 0
    assert builtin(pubkey_profile, "pbkdf2_hmac") == 0


def test_telemetry_off_has_no_storage_timing_layer(login_profile):
    assert count(login_profile, "instrument.py", "_timed") == 0
    assert not any(_is(file, "instrument.py") for file, _ in login_profile)


#: The telemetry package's instruments, tracer and registries.
TELEMETRY_FILES = (
    "telemetry/trace.py",
    "telemetry/metrics.py",
    "telemetry/registry.py",
)


@pytest.mark.parametrize("profile", PROFILES)
def test_telemetry_off_makes_no_telemetry_call(request, profile):
    calls = request.getfixturevalue(profile)
    entered = sorted(
        f"{file}:{name}" for file, name in calls if file in TELEMETRY_FILES
    )
    assert entered == []


@pytest.mark.parametrize("profile", [p for p in PROFILES if p != "pubkey_profile"])
def test_telemetry_off_times_no_stage(request, profile):
    calls = request.getfixturevalue(profile)
    assert count(calls, "authflow/pipeline.py", "run") >= 1
    clock_reads = sum(
        n
        for (caller, callee), n in calls.edges.items()
        if caller[0] == "authflow/pipeline.py" and callee == ("common/clock.py", "now")
    )
    assert clock_reads == 0


@pytest.mark.parametrize("profile", PROFILES)
def test_a_full_mode_ladder_builds_no_datetime(request, profile):
    assert builtin(request.getfixturevalue(profile), "fromtimestamp") == 0


def test_the_profile_saw_the_login(login_profile):
    """The zeros above mean something: the layers they name did run."""
    assert count(login_profile, "packet.py", "hide_password") == 1
    assert count(login_profile, "packet.py", "recover_password") == 1
    assert count(login_profile, "framework.py", "_run") == 1
    assert count(login_profile, "memory.py", "select") == 1
