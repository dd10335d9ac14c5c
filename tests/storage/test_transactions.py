"""One transaction protocol under every storage layer: begin, commit, rollback.

``engine.transaction()`` is a :class:`Transaction`: the engine's ``begin``
on the way in, then ``commit``, or ``rollback`` on any exception.  These
tests pin what the protocol promises across the layers:

* a WAL block becomes live only once its record is logged, so a refused
  append leaves the engine equal to the replayed log — on one WAL and on
  the shards of a sharded stack, where the shards not yet committed roll
  back with the one that refused;
* an aborted cross-shard block puts its routing index back before it lets
  go of any shard, undoing only the route changes its own thread made;
* a sharded block locks only the shards it touches: a lone op on another
  shard does not wait for it, and a unique value it deleted stays claimed
  against other threads until it ends;
* instrumented timing keeps each thread's block starts apart, and threads
  racing blocks against lone writes keep routes and counters exact and
  end where a serial replay of what they committed ends;
* a hypothesis state machine drives Instrumented → Caching → Sharded(4) →
  WAL (files) → memory through nested commits, aborts and refused commits
  against a dict model, checking rows, logs, routes and the transaction
  counters after every step.
"""

import random
import shutil
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import NotFoundError, ValidationError
from repro.storage import (
    InMemoryEngine,
    InstrumentedEngine,
    ShardedEngine,
    StorageConfig,
    TableSchema,
    WALEngine,
    build_engine,
    find_layer,
    load_wal,
    replay,
    state_digest,
)
from repro.storage.engine import Transaction
from repro.telemetry import Registry

SCHEMA = TableSchema(columns=("id", "s", "u"), primary_key="id", unique=("s",), indexed=("u",))

#: How long a test waits on another thread before calling it stuck.
PATIENCE = 5.0


def recomputed_routes(sharded):
    """The routing index the sharded engine's live rows call for."""
    routes = {key: {} for key in sharded._routes}
    for (table, column), by_value in routes.items():
        schema = sharded.schema(table)
        for index, shard in enumerate(sharded.shards):
            for row in shard.select(table):
                value = row[column]
                if value is None and column not in schema.indexed:
                    continue  # NULLs never participate in unique constraints
                owners = by_value.setdefault(value, {})
                owners[index] = owners.get(index, 0) + 1
    return routes


def assert_released(engine):
    """Another thread can open and close a block: nothing is left held."""

    def open_and_close():
        engine.begin()
        engine.rollback()

    worker = threading.Thread(target=open_and_close, daemon=True)
    worker.start()
    worker.join(PATIENCE)
    assert not worker.is_alive(), "a lock was left held"


def logged_digest(path):
    records, dropped = load_wal(path)
    assert dropped == 0
    return state_digest(replay(records))


class TestTheTransaction:
    def test_enter_begins_and_hands_back_the_engine(self):
        engine = InMemoryEngine()
        engine.create_table("t", SCHEMA)
        with engine.transaction() as inside:
            assert inside is engine
            engine.insert("t", {"id": 1, "s": "a", "u": "x"})
        assert engine.exists("t", 1)
        assert isinstance(engine.transaction(), Transaction)

    def test_an_exception_rolls_back_propagates_and_lets_go(self):
        engine = InMemoryEngine()
        engine.create_table("t", SCHEMA)
        with pytest.raises(KeyError):
            with engine.transaction():
                engine.insert("t", {"id": 1, "s": "a", "u": "x"})
                raise KeyError("boom")
        assert engine.row_count("t") == 0
        assert_released(engine)


class _FullOnce:
    """A log file whose first write finds the disk full."""

    def __init__(self, file):
        self.file = file
        self.full = True

    def write(self, text):
        if self.full:
            self.full = False
            raise OSError("disk full")
        return self.file.write(text)

    def flush(self):
        self.file.flush()

    def close(self):
        self.file.close()


class TestARefusedAppend:
    """A WAL block is logged before its inner engine commits."""

    def test_a_refused_commit_leaves_nothing_live(self, tmp_path):
        path = str(tmp_path / "t.wal")
        engine = WALEngine(path=path)
        engine.create_table("t", SCHEMA)
        engine.insert("t", {"id": 1, "s": "a", "u": "x"})
        engine.wal._file.close()
        with pytest.raises(ValueError):
            with engine.transaction():
                engine.insert("t", {"id": 2, "s": "b", "u": "x"})
                engine.insert("t", {"id": 3, "s": "c", "u": "y"})
        assert [row["id"] for row in engine.select("t")] == [1]
        assert engine.state_digest() == logged_digest(path)
        assert_released(engine)

    def test_a_refused_append_spends_no_lsn(self, tmp_path):
        engine = WALEngine(path=str(tmp_path / "t.wal"))
        engine.create_table("t", SCHEMA)
        engine.wal._file = _FullOnce(engine.wal._file)
        with pytest.raises(OSError):
            with engine.transaction():
                engine.insert("t", {"id": 1, "s": "a", "u": "x"})
        engine.insert("t", {"id": 2, "s": "b", "u": "x"})  # the disk has room again
        assert engine.wal.last_lsn == 2
        assert engine.select("t") == [{"id": 2, "s": "b", "u": "x"}]
        assert engine.state_digest() == logged_digest(engine.wal.path)

    def test_a_refused_shard_rolls_back_the_shards_not_yet_committed(self, tmp_path):
        shards = [WALEngine(path=str(tmp_path / f"shard{i}.wal")) for i in range(4)]
        engine = ShardedEngine(shards)
        engine.create_table("t", SCHEMA)
        for pk in range(40):
            engine.insert("t", {"id": pk, "s": f"s{pk}", "u": f"u{pk % 3}"})
        before = [shard.state_digest() for shard in shards]
        assert {engine._shard_of("t", pk) for pk in range(40, 60)} == {0, 1, 2, 3}
        shards[1].wal._file.close()
        with pytest.raises(ValueError):
            with engine.transaction():
                for pk in range(0, 40, 2):
                    engine.delete("t", pk)
                for pk in range(40, 60):  # the freed values, on other shards
                    engine.insert("t", {"id": pk, "s": f"s{2 * (pk - 40)}", "u": "new"})
        # Commit runs from the last shard down: 3 and 2 committed, 1
        # refused, and 0 had not committed yet.
        after = [shard.state_digest() for shard in shards]
        assert after[:2] == before[:2]
        assert after[2] != before[2] and after[3] != before[3]
        for shard in shards:
            assert shard.state_digest() == logged_digest(shard.wal.path)
        assert engine._routes == recomputed_routes(engine)
        assert_released(engine.shards[0])
        assert_released(engine.shards[2])


def test_a_refused_commit_clears_what_the_block_cached(tmp_path):
    engine = build_engine(
        StorageConfig(shards=2, durability=True, cache_capacity=8, wal_dir=str(tmp_path))
    )
    engine.create_table("t", SCHEMA)
    sharded = find_layer(engine, "shard_sizes")
    pk = _pk_on_shard(sharded, 0)
    sharded.shards[0].wal._file.close()
    with pytest.raises(ValueError):
        with engine.transaction():
            engine.insert("t", {"id": pk, "s": "a", "u": "x"})
            assert engine.get("t", pk)["s"] == "a"  # read inside the block
    with pytest.raises(NotFoundError):
        engine.get("t", pk)


def _pk_on_shard(engine, shard, table="t"):
    return next(pk for pk in range(100, 1000) if engine._shard_of(table, pk) == shard)


class TestAnAbortedCrossShardBlock:
    """The routing index is restored before any shard is let go."""

    @staticmethod
    def _engine():
        engine = ShardedEngine([InMemoryEngine() for _ in range(2)])
        engine.create_table("t", SCHEMA)
        for pk in range(8):
            engine.insert("t", {"id": pk, "s": f"S-{pk}", "u": "x"})
        return engine

    def test_an_insert_racing_the_abort_is_counted_once(self):
        engine = self._engine()
        new_pk = _pk_on_shard(engine, 1)
        armed, inserted = threading.Event(), threading.Event()

        def insert_new():
            engine.insert("t", {"id": new_pk, "s": "S-new", "u": "y"})
            inserted.set()

        real_select = engine.shards[0].select

        def select(table, where=None):
            # Another thread inserts while the abort is unwinding: only an
            # abort that rescans the shards ever reaches this hook.
            if armed.is_set() and not inserted.is_set():
                threading.Thread(target=insert_new, daemon=True).start()
                inserted.wait(PATIENCE)
            return real_select(table, where)

        engine.shards[0].select = select
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.delete("t", 0)
                engine.insert("t", {"id": 50, "s": "S-50", "u": "x"})
                armed.set()
                raise RuntimeError("abort")
        armed.clear()
        if not inserted.is_set():
            worker = threading.Thread(target=insert_new, daemon=True)
            worker.start()
            worker.join(PATIENCE)
        assert inserted.is_set()
        assert engine._routes == recomputed_routes(engine)
        # The freed unique value pairs again.
        engine.delete("t", new_pk)
        engine.insert("t", {"id": new_pk, "s": "S-new", "u": "y"})
        assert engine._routes == recomputed_routes(engine)

    def test_an_abort_keeps_another_threads_claim(self):
        engine = self._engine()
        new_pk = _pk_on_shard(engine, 1)
        worker = threading.Thread(
            target=engine.insert,
            args=("t", {"id": new_pk, "s": "S-new", "u": "x"}),
            daemon=True,
        )
        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.delete("t", 0)
                worker.start()
                # The claim is made under the route lock, before the worker
                # waits on shard 1, which this block holds.
                deadline = time.monotonic() + PATIENCE
                while engine._route_shards("t", "s", "S-new") != [1]:
                    assert time.monotonic() < deadline, "the claim never landed"
                    time.sleep(0.001)
                raise RuntimeError("abort")
        worker.join(PATIENCE)
        assert not worker.is_alive()
        assert engine.get_by_unique("t", "s", "S-new")["id"] == new_pk
        assert engine.get("t", 0)["s"] == "S-0"
        assert engine._routes == recomputed_routes(engine)

    def test_a_savepoint_abort_undoes_only_its_own_routes(self):
        engine = self._engine()
        with engine.transaction():
            engine.delete("t", 1)
            with pytest.raises(RuntimeError):
                with engine.transaction():
                    engine.delete("t", 2)
                    engine.insert("t", {"id": 60, "s": "S-1", "u": "z"})
                    raise RuntimeError("inner")
            assert engine._routes == recomputed_routes(engine)
        assert engine._routes == recomputed_routes(engine)
        assert not engine.exists("t", 1) and engine.exists("t", 2)
        assert engine._route_log == [] and engine._route_marks == []


class TestABlockLocksOnlyWhatItTouches:
    """docs/ARCHITECTURE.md "Storage engines": a sharded block begins a shard
    at its first op there, so the shards it has not touched stay free."""

    def test_a_lone_op_on_another_shard_does_not_wait_for_the_block(self):
        engine = ShardedEngine([WALEngine() for _ in range(4)])
        engine.create_table("t", SCHEMA)
        mine = _pk_on_shard(engine, 0)
        first, second = [pk for pk in range(100, 1000) if engine._shard_of("t", pk) == 2][:2]
        engine.insert("t", {"id": first, "s": "F", "u": "x"})
        seen = []

        def lone_ops():
            engine.insert("t", {"id": second, "s": "G", "u": "x"})
            engine.update("t", first, {"u": "y"})
            seen.append(engine.get("t", first))

        with engine.transaction():
            engine.insert("t", {"id": mine, "s": "M", "u": "x"})
            worker = threading.Thread(target=lone_ops, daemon=True)
            worker.start()
            worker.join(PATIENCE)
            stalled = worker.is_alive()
        worker.join(PATIENCE)
        assert not stalled, "a lone op on an untouched shard waited for the block"
        assert seen == [{"id": first, "s": "F", "u": "y"}]
        assert engine._routes == recomputed_routes(engine)
        for shard in engine.shards:
            assert shard.state_digest() == state_digest(replay(shard.wal.read()))

    def test_a_value_the_open_block_deleted_stays_claimed(self):
        engine = TestAnAbortedCrossShardBlock._engine()
        other = _pk_on_shard(engine, 1 - engine._shard_of("t", 0))
        outcomes = []

        def claim():
            for write in (
                lambda: engine.insert("t", {"id": other, "s": "S-0", "u": "y"}),
                lambda: engine.update("t", 1, {"s": "S-0"}),
            ):
                try:
                    write()
                    outcomes.append("took it")
                except ValidationError:
                    outcomes.append("refused")

        with pytest.raises(RuntimeError):
            with engine.transaction():
                engine.delete("t", 0)
                worker = threading.Thread(target=claim, daemon=True)
                worker.start()
                worker.join(PATIENCE)
                raise RuntimeError("abort")
        worker.join(PATIENCE)
        assert outcomes == ["refused", "refused"]
        assert [row["id"] for row in engine.select("t") if row["s"] == "S-0"] == [0]
        assert engine._routes == recomputed_routes(engine)
        # Once a block that deleted it commits, the value is free again.
        with engine.transaction():
            engine.delete("t", 0)
        engine.insert("t", {"id": other, "s": "S-0", "u": "y"})
        assert engine.get_by_unique("t", "s", "S-0")["id"] == other


def test_racing_unique_updates_leave_every_value_on_one_row():
    """Eight threads (more than the cores) move their rows, spread over the
    four shards, onto a few shared unique values and back, with the
    interpreter switching threads as often as it can: an update claims its
    value before its shard write, so no value ends on two rows, and the
    routes are exactly the live rows'."""
    threads, rounds = 8, 150
    sharded = ShardedEngine([InMemoryEngine() for _ in range(4)])
    sharded.create_table("t", SCHEMA)
    for pk in range(threads * 4):
        sharded.insert("t", {"id": pk, "s": f"own{pk}", "u": "x"})
    errors = []

    def worker(slot):
        rng = random.Random(slot)
        try:
            for _ in range(rounds):
                pk = rng.randrange(slot * 4, slot * 4 + 4)
                try:
                    sharded.update("t", pk, {"s": rng.choice(["A", "B", "C", f"own{pk}"])})
                except ValidationError:
                    pass
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(slot,), daemon=True)
                   for slot in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers), "a thread is stuck"
    assert errors == []
    held = [row["s"] for shard in sharded.shards for row in shard.select("t")]
    assert len(held) == threads * 4 and len(set(held)) == len(held)
    assert sharded._routes == recomputed_routes(sharded)


def test_blocks_touching_shards_high_to_low_race_lone_ops_to_a_serial_replay():
    """Eight threads (more than the cores) run blocks that touch the shards
    from the last down to the first, mixed with lone writes on their own
    rows, with the interpreter switching threads as often as it can.  None
    deadlocks, and the end state is each thread's committed writes replayed
    serially."""
    threads, rounds = 8, 40
    sharded = ShardedEngine([WALEngine() for _ in range(4)])
    sharded.create_table("t", SCHEMA)
    owned = [[pk for pk in range(4000) if sharded._shard_of("t", pk) == shard]
             for shard in range(4)]
    journals = [[] for _ in range(threads)]
    errors = []

    def write(pk, u, journal, live):
        if pk in live:
            sharded.update("t", pk, {"u": u})
            journal.append(("update", pk, {"u": u}))
        else:
            sharded.insert("t", {"id": pk, "s": f"s{pk}", "u": u})
            journal.append(("insert", pk, {"id": pk, "s": f"s{pk}", "u": u}))
            live.add(pk)

    def worker(slot):
        rng = random.Random(slot)
        mine = [shard_pks[slot::threads][:6] for shard_pks in owned]
        live = set()
        try:
            for round_no in range(rounds):
                if rng.random() < 0.5:
                    pending, staged = [], set(live)
                    try:
                        with sharded.transaction():
                            for shard in (3, 2, 1, 0):
                                write(rng.choice(mine[shard]), round_no, pending, staged)
                            if rng.random() < 0.3:
                                raise _Abort()
                        journals[slot].extend(pending)
                        live = staged
                    except _Abort:
                        pass
                else:
                    pk = rng.choice(rng.choice(mine))
                    if pk in live and rng.random() < 0.3:
                        sharded.delete("t", pk)
                        journals[slot].append(("delete", pk, None))
                        live.discard(pk)
                    else:
                        write(pk, -round_no, journals[slot], live)
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(slot,), daemon=True)
                   for slot in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers), "a thread is stuck"
    assert errors == []
    serial = InMemoryEngine()
    serial.create_table("t", SCHEMA)
    for journal in journals:
        for op, pk, data in journal:
            if op == "insert":
                serial.insert("t", data)
            elif op == "update":
                serial.update("t", pk, data)
            else:
                serial.delete("t", pk)
    assert state_digest(sharded) == state_digest(serial)
    assert sharded._routes == recomputed_routes(sharded)
    assert (sharded._begun, sharded._held, sharded._route_log) == ([], set(), [])
    for shard in sharded.shards:
        assert shard.state_digest() == state_digest(replay(shard.wal.read()))


class _SteppedClock:
    """The test's time in the test's thread; in any other, the next of
    ``elsewhere``."""

    def __init__(self, elsewhere):
        self.value = 0.0
        self.elsewhere = iter(elsewhere)
        self.read_elsewhere = threading.Event()
        self._main = threading.get_ident()

    def now(self):
        if threading.get_ident() == self._main:
            return self.value
        self.read_elsewhere.set()
        return next(self.elsewhere)


def test_two_threads_blocks_time_their_own_starts():
    registry = Registry()
    clock = _SteppedClock(elsewhere=(10.0, 30.0))
    engine = InstrumentedEngine(InMemoryEngine(), telemetry=registry, clock=clock)
    engine.begin()  # starts at 0

    def second_block():
        with engine.transaction():  # starts at 10, waits on the lock, ends at 30
            pass

    worker = threading.Thread(target=second_block, daemon=True)
    worker.start()
    assert clock.read_elsewhere.wait(PATIENCE)
    clock.value = 11.0
    engine.commit()  # 11 - 0; a start both blocks shared would make it 11 - 10
    worker.join(PATIENCE)
    assert not worker.is_alive()
    (series,) = [
        s for s in registry.histogram("storage_op_seconds").snapshot()["series"]
        if s["labels"] == {"op": "transaction", "table": "*"}
    ]
    assert (series["count"], series["min"], series["max"]) == (2, 11.0, 20.0)


class _Abort(Exception):
    pass


def test_racing_blocks_and_lone_writes_keep_routes_and_counts_exact():
    """Six threads (more than the cores) race blocks that commit or abort
    against lone inserts and deletes over shared unique values, with the
    interpreter switching threads as often as it can."""
    threads, rounds = 6, 400
    registry = Registry()
    sharded = ShardedEngine([InMemoryEngine() for _ in range(4)])
    engine = InstrumentedEngine(sharded, telemetry=registry)
    engine.create_table("t", SCHEMA)
    outcomes = [[0, 0] for _ in range(threads)]  # commits, aborts
    errors = []

    def worker(slot):
        rng = random.Random(slot)
        mine = []
        try:
            for round_no in range(rounds):
                row = {"id": slot * 1000 + round_no, "s": f"v{rng.randrange(30)}", "u": slot}
                if rng.random() < 0.5:
                    try:
                        with engine.transaction():
                            engine.insert("t", row)
                            if mine and rng.random() < 0.5:
                                engine.delete("t", mine.pop())
                            if rng.random() < 0.5:
                                raise _Abort()
                        mine.append(row["id"])
                        outcomes[slot][0] += 1
                    except (_Abort, ValidationError):
                        outcomes[slot][1] += 1
                        mine = [pk for pk in mine if engine.exists("t", pk)]
                else:
                    try:
                        engine.insert("t", row)
                        mine.append(row["id"])
                    except ValidationError:
                        pass
                    if mine and rng.random() < 0.3:
                        engine.delete("t", mine.pop(0))
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(slot,), daemon=True)
                   for slot in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert errors == []
    assert sharded._routes == recomputed_routes(sharded)
    counted = registry.counter("storage_transactions_total")
    assert counted.value(outcome="commit") == sum(c for c, _ in outcomes) > 0
    assert counted.value(outcome="abort") == sum(a for _, a in outcomes) > 0


# -- the whole stack against a model -------------------------------------------

PKS = st.integers(0, 9)
VALUES = st.sampled_from([None, "a", "b", "c", "d"])
MAX_DEPTH = 3


class _RefusedAppend(OSError):
    pass


def _refuse(record):
    raise _RefusedAppend("disk full")


class StorageStackMachine(RuleBasedStateMachine):
    """Instrumented → Caching → Sharded(4) → WAL (files) → memory, with a dict
    model of the rows and a copy of it per open block."""

    def __init__(self):
        super().__init__()
        self.wal_dir = tempfile.mkdtemp(prefix="txn-stack-")
        self.registry = Registry()
        self.engine = build_engine(
            StorageConfig(
                shards=4, durability=True, cache_capacity=8, snapshot_every=7,
                wal_dir=self.wal_dir,
            ),
            telemetry=self.registry,
        )
        self.sharded = find_layer(self.engine, "shard_sizes")
        self.engine.create_table("t", SCHEMA)
        self.rows = {}
        #: Per open block: its Transaction, the rows before it, and the
        #: shards it has written (each has a record buffered).
        self.blocks = []
        self.outcomes = {"commit": 0, "abort": 0}

    def teardown(self):
        for shard in self.sharded.shards:
            shard.wal.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def _wrote(self, pk):
        if self.blocks:
            self.blocks[-1][2].add(self.sharded._shard_of("t", pk))

    def _held_by_other(self, s, pk):
        return s is not None and any(
            row["s"] == s for key, row in self.rows.items() if key != pk
        )

    # -- writes ---------------------------------------------------------------

    @rule(pk=PKS, s=VALUES, u=VALUES)
    def insert(self, pk, s, u):
        row = {"id": pk, "s": s, "u": u}
        if pk in self.rows or self._held_by_other(s, pk):
            with pytest.raises(ValidationError):
                self.engine.insert("t", row)
            return
        assert self.engine.insert("t", row) == row
        self.rows[pk] = row
        self._wrote(pk)

    @rule(pk=PKS, changes=st.dictionaries(st.sampled_from(["s", "u"]), VALUES))
    def update(self, pk, changes):
        if pk not in self.rows or self._held_by_other(changes.get("s"), pk):
            with pytest.raises((ValidationError, NotFoundError)):
                self.engine.update("t", pk, changes)
            return
        row = self.rows[pk] = {**self.rows[pk], **changes}
        assert self.engine.update("t", pk, changes) == row
        self._wrote(pk)

    @rule(pk=PKS)
    def delete(self, pk):
        if pk not in self.rows:
            with pytest.raises(NotFoundError):
                self.engine.delete("t", pk)
            return
        assert self.engine.delete("t", pk) == self.rows.pop(pk)
        self._wrote(pk)

    # -- point reads (through the cache) ------------------------------------

    @rule(pk=PKS)
    def get(self, pk):
        if pk in self.rows:
            assert self.engine.get("t", pk) == self.rows[pk]
        else:
            with pytest.raises(NotFoundError):
                self.engine.get("t", pk)

    @rule(s=VALUES.filter(lambda value: value is not None))
    def get_by_unique(self, s):
        holders = [row for row in self.rows.values() if row["s"] == s]
        if holders:
            assert self.engine.get_by_unique("t", "s", s) in holders
        else:
            with pytest.raises(NotFoundError):
                self.engine.get_by_unique("t", "s", s)

    # -- blocks ---------------------------------------------------------------

    @precondition(lambda self: len(self.blocks) < MAX_DEPTH)
    @rule()
    def begin(self):
        transaction = self.engine.transaction()
        assert transaction.__enter__() is self.engine
        self.blocks.append((transaction, dict(self.rows), set()))

    @precondition(lambda self: self.blocks)
    @rule()
    def commit(self):
        transaction, _, wrote = self.blocks.pop()
        transaction.__exit__(None, None, None)
        if self.blocks:  # a committed savepoint folds into its parent
            self.blocks[-1][2].update(wrote)
        self.outcomes["commit"] += 1

    @precondition(lambda self: self.blocks)
    @rule()
    def abort(self):
        transaction, before, _ = self.blocks.pop()
        error = RuntimeError("abort")
        assert not transaction.__exit__(RuntimeError, error, None)
        self.rows = before
        self.outcomes["abort"] += 1

    @precondition(lambda self: len(self.blocks) == 1)
    @rule(refusing=st.integers(0, 3))
    def refused_commit(self, refusing):
        """The outermost commit meets a shard whose log refuses to append."""
        transaction, before, wrote = self.blocks.pop()
        wal = self.sharded.shards[refusing].wal
        wal.append = _refuse
        try:
            if refusing not in wrote:  # nothing to append there: it commits
                transaction.__exit__(None, None, None)
                self.outcomes["commit"] += 1
                return
            with pytest.raises(_RefusedAppend):
                transaction.__exit__(None, None, None)
        finally:
            del wal.append
        self.outcomes["abort"] += 1
        # Shards above the refusing one committed; it and those below did not.
        rows = {}
        for pk in {*before, *self.rows}:
            source = self.rows if self.sharded._shard_of("t", pk) > refusing else before
            if pk in source:
                rows[pk] = source[pk]
        self.rows = rows

    def _write(self, pk):
        """Write one row, whichever rule applies: a shard touch that always
        lands."""
        if pk in self.rows:
            self.update(pk, {"u": "d"})
        else:
            self.insert(pk, None, "d")

    @precondition(lambda self: not self.blocks)
    @rule(outer=PKS, inner=PKS, keep=st.booleans())
    def first_touch_in_a_savepoint(self, outer, inner, keep):
        """A shard the block first touches at depth 2 is begun at both
        levels, so ending the savepoint leaves it held by the outer block."""
        self.begin()
        self._write(outer)
        self.begin()
        self._write(inner)
        touched = list(dict.fromkeys(self.sharded._shard_of("t", pk) for pk in (outer, inner)))
        assert self.sharded._begun == touched
        if keep:
            self.commit()
        else:
            self.abort()
        assert self.sharded._begun == touched

    @precondition(lambda self: len(self.blocks) == 1 and self.sharded._begun)
    @rule()
    def refused_commit_on_the_shard_touched_last(self):
        self.refused_commit(self.sharded._begun[-1])

    # -- what must hold after every step ------------------------------------

    @invariant()
    def no_block_state_outlives_the_block(self):
        if not self.blocks:
            held = (self.sharded._begun, self.sharded._held, self.sharded._route_log)
            assert held == ([], set(), [])

    @invariant()
    def live_rows_are_the_model(self):
        live = sorted(self.engine.select("t"), key=lambda row: row["id"])
        assert live == [self.rows[pk] for pk in sorted(self.rows)]

    @invariant()
    def routes_are_the_live_rows(self):
        assert self.sharded._routes == recomputed_routes(self.sharded)

    @invariant()
    def every_shard_is_its_replayed_log(self):
        if self.blocks:
            return  # an open block is live but not logged yet
        for shard in self.sharded.shards:
            assert shard.state_digest() == logged_digest(shard.wal.path)

    @invariant()
    def every_block_is_counted_once(self):
        counted = self.registry.counter("storage_transactions_total")
        assert counted.value(outcome="commit") == self.outcomes["commit"]
        assert counted.value(outcome="abort") == self.outcomes["abort"]


StorageStackMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestStorageStack = StorageStackMachine.TestCase
