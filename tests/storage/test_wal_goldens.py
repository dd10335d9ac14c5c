"""Nothing changed on disk or in state: pinned WAL bytes and state digests.

A scripted session — inserts with ``bytes`` columns, updates, deletes, a
multi-op transaction, an aborted transaction and a snapshot — runs on a
sharded WAL stack, a sharded replicated one and a one-shard replicated
one.  The sha256 of every shard's
WAL file, the engine's ``state_digest`` and the digest of each shard
rebuilt offline from its file are pinned: a change that makes a storage op
cheaper must leave every byte it writes, and every state it leaves, as it
was.
"""

import hashlib

import pytest

from repro.common.errors import ValidationError
from repro.storage import (
    InMemoryEngine,
    ShardedEngine,
    StorageConfig,
    TableSchema,
    WALEngine,
    build_engine,
    load_wal,
    replay,
    shards_of,
    state_digest,
)

TOKENS = TableSchema(
    columns=(
        "serial", "user_id", "kind", "seed", "counter", "failures",
        "active", "phone", "label", "created", "last_used",
    ),
    primary_key="serial",
    unique=("phone",),
    indexed=("user_id", "kind"),
)
AUDIT = TableSchema(columns=("id", "user_id", "detail"), primary_key="id")


def _token(n):
    return {
        "serial": f"TOTP{n:04d}",
        "user_id": f"uid{n % 5}",
        "kind": ("soft", "sms", "hard")[n % 3],
        "seed": bytes(range(n % 7, n % 7 + 20)),
        "counter": n * 3,
        "failures": 0,
        "active": n % 4 != 0,
        "phone": f"512555{n:04d}" if n % 3 == 1 else None,
        "label": f"token {n} é",
        "created": 1475658000.0 + n,
    }


def _session(engine, snapshot):
    engine.create_table("tokens", TOKENS)
    engine.create_table("audit", AUDIT)
    for n in range(24):
        engine.insert("tokens", _token(n))
    for n in range(0, 24, 3):
        engine.update("tokens", f"TOTP{n:04d}", {"failures": n, "last_used": 1475660000.5})
    engine.update("tokens", "TOTP0005", {"seed": b"\xff\x00rotated", "phone": None})
    for n in (2, 11, 17):
        engine.delete("tokens", f"TOTP{n:04d}")
    with engine.transaction():
        engine.insert("tokens", _token(40))
        engine.update("tokens", "TOTP0001", {"active": False, "label": None})
        engine.delete("tokens", "TOTP0004")
        engine.insert("audit", {"id": 1, "user_id": "uid0", "detail": "reset"})
    with pytest.raises(ValidationError):
        with engine.transaction():
            engine.insert("tokens", _token(41))
            engine.delete("tokens", "TOTP0007")
            raise ValidationError("abort")
    snapshot()
    engine.insert("audit", {"id": 2, "user_id": "uid1", "detail": b"\x00\x01"})
    engine.update("tokens", "TOTP0008", {"counter": 999})


def _digests(engine, paths):
    files = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
    rebuilt = []
    for path in paths:
        records, dropped = load_wal(str(path))
        assert dropped == 0
        rebuilt.append(state_digest(replay(records)))
    return files, state_digest(engine), rebuilt


#: The logical state every stack ends in.
STATE = "b7880a77d12027943778454115d2a5f56cebb6c34c034a060389e35b9cd09a82"

SHARDED_FILES = [
    "a96018fc92f1a6eb3379feadeddcf688f8ecdf41b2d177756c61282ee97d4b90",
    "fde2899012081055cc581d5dfdc9e494e910e82fd0dfb8a2fdddce41f00697da",
    "39911167bd5f1359a0ec8bcca74c1409036a36c2ef83ef9d4eab9a59c353d718",
    "6419307dbc13e4d4e2b04e632c476eba4c586e79145cdf3aa2bc11546f82547a",
]
SHARDED_REBUILT = [
    "d1f213634dc2b1cea68a3979adf0d1b6c90c6c3a3e4dce09d1e4b9b9828f1f5e",
    "69c8aff66f477e9d29dde90ae0be6a1435b41ff898b0b95c7ee254f42fb6550d",
    "ff18c6e287daafd62c5d9309262778c3f6a48f46ea9cb34fbd96c3392cf5cebe",
    "aa96057d5bc7d9d4aef7739020017c1e99c393a4ae03cc2f707cc30544a444f6",
]

REPLICATED_FILES = [
    "0378f45b7e86605bf6338e6f34439a8c069da513f6d6de722fe602d0472808d6",
    "15c08d3af00a033893b7a2e8187dae4e4e2d272ae321fb2e2606809e025e953a",
]
REPLICATED_REBUILT = [
    "9ac4f01eda34e53eaab0b78b4a535185c442737dcf3faa79d7172e937ab909de",
    "c588536d6c278421fa324872c264aa9a677868040a6264f8db06f2db7909a8ab",
]

#: One shard holds every row, so its file rebuilds the whole state.
SINGLE_FILES = ["08c1598d5998b0491359fb24a668944dac6caa2062cca282631e5875f08631b0"]
SINGLE_REBUILT = [STATE]


def test_sharded_wal_bytes_and_state_are_pinned(tmp_path):
    paths = [tmp_path / f"shard{index}.wal" for index in range(4)]
    shards = [WALEngine(InMemoryEngine(), path=str(path)) for path in paths]
    engine = ShardedEngine(shards)

    def snapshot():
        for shard in shards:
            shard.snapshot()

    _session(engine, snapshot)
    for shard in shards:
        shard.wal.close()
    files, state, rebuilt = _digests(engine, paths)
    assert (files, state, rebuilt) == (SHARDED_FILES, STATE, SHARDED_REBUILT)


def _replicated_session(config, tmp_path):
    """Run the session on ``build_engine(config)``; every replica must end
    caught up with its primary.  Returns the pinned digests."""
    engine = build_engine(config)
    shards = shards_of(engine)

    def snapshot():
        for shard in shards:
            shard.snapshot()

    _session(engine, snapshot)
    for shard in shards:
        shard.wal.close()
        assert all(
            state_digest(replica.engine) == state_digest(shard.inner)
            and replica.applied_lsn == shard.wal.last_lsn
            for replica in shard.replicas
        )
    paths = [tmp_path / f"shard{index}.wal" for index in range(config.shards)]
    return _digests(engine, paths)


def test_replicated_wal_bytes_and_state_are_pinned(tmp_path):
    config = StorageConfig(shards=2, replicas=2, wal_dir=str(tmp_path), snapshot_every=7)
    assert _replicated_session(config, tmp_path) == (
        REPLICATED_FILES, STATE, REPLICATED_REBUILT,
    )


def test_one_shard_replicated_wal_bytes_and_state_are_pinned(tmp_path):
    config = StorageConfig(replicas=2, wal_dir=str(tmp_path), snapshot_every=7)
    assert _replicated_session(config, tmp_path) == (SINGLE_FILES, STATE, SINGLE_REBUILT)
