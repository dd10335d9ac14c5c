"""What each validate outcome writes to the token row, checked by state.

``ApplyOutcome`` writes only the columns whose stored value differs from
the row ``ResolveIdentity`` read under the login name's striped lock: a
failure writes ``failcount`` (and ``active`` at the lockout), a first
success ``pairing_confirmed``, a success after failures ``failcount``, and
a warm success nothing at all.  A scripted session on the production
storage stack (two WAL-logged shards to disk, telemetry on) checks the
row, every shard's offline replay and the WAL records after each step;
two threaded runs check that the skipped writes lose no state when many
attempts race one account.
"""

import random
import sys
import threading

from repro.common.clock import VirtualClock
from repro.common.results import ValidateStatus
from repro.core import MFACenter
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.storage import StorageConfig, find_layer, load_wal, replay, state_digest

CODE = "424242"
WRONG = "000000"
THREADS = 8
SUCCESSES_PER_THREAD = 50
#: 40 wrong codes in all: twice the lockout threshold.
WRONG_PER_THREAD = 5


def _center(tmp_path, **kwargs):
    return MFACenter(
        clock=VirtualClock.at("2016-10-05T09:00:00"),
        rng=random.Random(20160810),
        storage=StorageConfig(shards=2, durability=True, wal_dir=str(tmp_path)),
        **kwargs,
    )


def _wal_shards(center):
    return find_layer(center.otp.db.engine, "shard_sizes").shards


def _token_updates(center):
    """Every ``update`` record of the tokens table, across all shard files."""
    updates = []
    for shard in _wal_shards(center):
        records, dropped = load_wal(shard.wal.path)
        assert dropped == 0
        updates += [
            record["changes"]
            for record in records
            if record["op"] == "update" and record["table"] == "tokens"
        ]
    return updates


def _row(center, name):
    """The token row's ``(failcount, active, pairing_confirmed)``, or None."""
    tokens = center.otp.user_tokens(center.uid_of(name))
    if not tokens:
        return None
    (token,) = tokens
    return token.failcount, token.active, token.pairing_confirmed


class TestScriptedSession:
    def test_each_step_writes_only_what_changed(self, tmp_path):
        center = _center(tmp_path, telemetry=True)
        uid = center.create_user("alice", password="pw-alice").uid
        api = AdminAPI(center.otp, rng=random.Random(1))
        api.add_admin("staff", "staff-secret")
        admin = AdminAPIClient(api, "staff", "staff-secret", rng=random.Random(2))

        def pair():
            admin.call("POST", "/admin/init", {"user": uid, "type": "static", "otpkey": CODE})

        def attempt(code, status):
            def step():
                assert center.radius_backend.validate("alice", code).status is status
            return step

        good = attempt(CODE, ValidateStatus.OK)
        wrong = attempt(WRONG, ValidateStatus.REJECT)
        #: (what happens, the token row after it, the update records it adds)
        script = [
            ("pair", pair, (0, True, False), []),
            ("first good code", good, (0, True, True), [{"pairing_confirmed": True}]),
            ("warm good code", good, (0, True, True), []),
            *[
                (f"wrong code {n}", wrong, (n, True, True), [{"failcount": n}])
                for n in (1, 2)
            ],
            ("good after failures", good, (0, True, True), [{"failcount": 0}]),
            *[
                (f"wrong code {n}", wrong, (n, True, True), [{"failcount": n}])
                for n in range(1, 20)
            ],
            (
                "20th wrong code locks",
                wrong,
                (20, False, True),
                [{"failcount": 20, "active": False}],
            ),
            ("locked attempt", attempt(CODE, ValidateStatus.LOCKED), (20, False, True), []),
            (
                "admin reset",
                lambda: admin.call("POST", "/admin/reset", {"user": uid}),
                (0, True, True),
                [{"failcount": 0, "active": True}],
            ),
            ("warm good after reset", good, (0, True, True), []),
            ("admin remove", lambda: admin.call("POST", "/admin/remove", {"user": uid}), None, []),
            ("re-init", pair, (0, True, False), []),
            ("first good on the new pairing", good, (0, True, True), [{"pairing_confirmed": True}]),
        ]
        seen = 0
        for label, step, row, written in script:
            step()
            assert _row(center, "alice") == row, label
            updates = _token_updates(center)
            assert updates[seen:] == written, label
            seen = len(updates)
            for shard in _wal_shards(center):
                records, _ = load_wal(shard.wal.path)
                assert state_digest(replay(records)) == shard.state_digest(), label


class TestUnderThreads:
    """Many threads on one account: racing successes write the row once, and
    the lockout crossing locks once."""

    @staticmethod
    def _race(work):
        results = [[] for _ in range(THREADS)]
        threads = [
            threading.Thread(target=work, args=(results[slot],)) for slot in range(THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return [status for per_thread in results for status in per_thread]

    def test_racing_successes_write_the_row_once(self, tmp_path):
        center = _center(tmp_path)
        center.create_user("trainee", password="pw-trainee")
        center.pair_training("trainee", CODE)

        def work(out):
            for _ in range(SUCCESSES_PER_THREAD):
                out.append(center.otp.validate("trainee", CODE).status)

        statuses = self._race(work)
        assert statuses == [ValidateStatus.OK] * (THREADS * SUCCESSES_PER_THREAD)
        assert _row(center, "trainee") == (0, True, True)
        assert _token_updates(center) == [{"pairing_confirmed": True}]

    def test_racing_failures_lock_once(self, tmp_path):
        center = _center(tmp_path)
        center.create_user("victim", password="pw-victim")
        center.pair_training("victim", CODE)
        threshold = center.otp.config.lockout_threshold

        def work(out):
            for _ in range(WRONG_PER_THREAD):
                out.append(center.otp.validate("victim", WRONG).status)

        statuses = self._race(work)
        assert statuses.count(ValidateStatus.REJECT) == threshold
        assert statuses.count(ValidateStatus.LOCKED) == THREADS * WRONG_PER_THREAD - threshold
        assert _row(center, "victim") == (threshold, False, False)
        uid = center.uid_of("victim")
        lockouts = [
            row for row in center.otp.audit.entries()
            if row.action == "lockout" and row.user_id == uid
        ]
        assert len(lockouts) == 1
        # Later attempts are refused as locked and leave the counter alone.
        assert center.otp.validate("victim", CODE).status is ValidateStatus.LOCKED
        assert _row(center, "victim") == (threshold, False, False)
