"""A login computes a value once, in the form it is used.

The guard for docs/ARCHITECTURE.md "Hot path": one warm first-try login on
a default deployment (telemetry off) is profiled, and the work the front
tier used to repeat must be absent — by name, not by a call-count budget
that every unrelated change would have to renegotiate.  The same profiles,
with an SMS login and a wrong-code login beside them, guard "Off means
absent": no telemetry function is entered and no stage is timed.
"""

import cProfile
import os
import random

import pytest

from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.crypto.totp import TOTPGenerator
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.ssh import SSHClient
from repro.storage import StorageConfig
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
    round (the first warms imports and first-use tables)."""
    login(lambda function, *args, **kwargs: function(*args, **kwargs))
    profiler = cProfile.Profile()
    login(profiler.runcall)
    calls = Profile()
    for entry in profiler.getstats():
        key = where(entry.code)
        calls[key] = calls.get(key, 0) + entry.callcount
        for callee in entry.calls or ():
            edge = (key, where(callee.code))
            calls.edges[edge] = calls.edges.get(edge, 0) + callee.callcount
    return calls


@pytest.fixture(scope="module")
def login_profile():
    """One warm soft-token login from outside: password, then token."""
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

    return profile_second_call(login)


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

    def remove(run):
        body = run(admin.call, "POST", "/admin/remove", {"user": uids.pop()})
        assert body["removed"] == 1

    return profile_second_call(remove)


def test_a_transaction_is_one_begin_and_one_commit_per_layer(admin_remove_profile):
    """docs/ARCHITECTURE.md "Storage engines": a block is one ``begin`` on
    the way in and one ``commit`` on the way out, per layer and per shard,
    with no generator context manager or ``ExitStack`` between them."""
    assert not any(_is(file, "contextlib.py") for file, _ in admin_remove_profile)
    for layer, calls in (
        ("instrument.py", 1), ("cache.py", 1), ("sharding.py", 1),
        ("wal.py", 4), ("memory.py", 4),  # one per shard
    ):
        # The cache changes commit but not begin: its begin is Layer's.
        begin_in = "engine.py" if layer == "cache.py" else layer
        assert count(admin_remove_profile, f"storage/{begin_in}", "begin") == calls
        assert count(admin_remove_profile, f"storage/{layer}", "commit") == calls
    assert count(admin_remove_profile, "storage/sharding.py", "_rebuild_routes") == 0
    # ... the block did its work (the token row left), and all of it,
    # transaction included, is at most 265 calls (~340 with a generator
    # context manager per layer and shard).
    assert count(admin_remove_profile, "storage/wal.py", "delete") == 1
    assert sum(admin_remove_profile.values()) <= 265


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


@pytest.fixture(scope="module")
def telemetry_on_profile(tmp_path_factory):
    """One warm valid validate on loginbench's ``validate_backend`` stack:
    four WAL-logged shards to disk under a read-through cache, the ingest
    queue, risk, the resolver chain and telemetry on."""
    center = MFACenter(
        clock=VirtualClock.at("2016-10-05T09:00:00"),
        rng=random.Random(20160810),
        storage=StorageConfig(
            shards=4, durability=True, cache_capacity=2048, snapshot_every=5000,
            wal_dir=str(tmp_path_factory.mktemp("wal")),
        ),
        ingest=True, risk=True, resolvers=True, telemetry=True,
    )
    center.create_user("trainee", password="pw-trainee")
    code = center.pair_training("trainee", "424242")

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
    # ... and the spans those zeros speak for were opened and closed.
    assert count(telemetry_on_profile, "telemetry/trace.py", "span") >= 1
    assert count(telemetry_on_profile, "telemetry/trace.py", "__exit__") >= 1


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


def test_the_uid_probe_never_reaches_the_filter_parser(login_profile):
    assert count(login_profile, "ldap.py", "_parse_expr") == 0
    assert count(login_profile, "ldap.py", "_compile_filter") == 0
    assert count(login_profile, "backends.py", "escape_filter_value") == 0
    assert count(login_profile, "ldap.py", "search") == 1


def test_the_radius_codec_runs_no_per_byte_generator(login_profile):
    assert count(login_profile, "packet.py", "<genexpr>") == 0
    # RFC 2865's own four: hide, recover, sign the response, verify it.
    md5 = sum(n for (_, name), n in login_profile.items() if "openssl_md5" in name)
    assert md5 == 4
    # The attribute bytes are built once per packet sent (request, response).
    assert count(login_profile, "packet.py", "_attr_bytes") == 2


def builtin(profile, fragment):
    return sum(n for (file, name), n in profile.items() if file == "~" and fragment in name)


def test_the_password_rounds_loop_inside_one_call(login_profile):
    assert builtin(login_profile, "pbkdf2_hmac") == 1
    assert builtin(login_profile, "openssl_sha256") == 0


def test_a_public_key_connect_draws_once_and_derives_once(pubkey_profile):
    for file in ("daemon.py", "keys.py", "secrets.py", "ids.py"):
        assert count(pubkey_profile, file, "<genexpr>") == 0
    assert builtin(pubkey_profile, "getrandbits") == 1  # the 32-octet challenge
    # The fingerprint is two SHA-256s (the ``public_key`` line, then its
    # digest): the property, and the function of the same name behind it.
    assert count(pubkey_profile, "keys.py", "public_key") == 1
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
