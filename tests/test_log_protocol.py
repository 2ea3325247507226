"""What a transaction leaves in the log (DESIGN.md §8).

BEGIN is appended with a transaction's first logged record, so a
transaction that writes nothing — a read-only one, or an MVCC posting
whose machines all come back to their committed heads — appends no
record and forces nothing, on both engines.  A crash right after it (or
while it is still open) leaves recovery no loser to roll back.
"""

from __future__ import annotations

import pytest

from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.workloads.locksim import HotObject

ENGINES = ["disk", "mm"]


def _log_counts(db) -> tuple[int, int]:
    stats = db.storage.stats
    return stats.log_records, stats.log_forces


def _reopen_after_crash(db, path, engine, **kwargs):
    db.simulate_crash()
    return Database.open(path, engine=engine, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
def test_read_only_transaction_logs_and_forces_nothing(db_path, engine):
    db = Database.open(db_path, engine=engine)
    with db.transaction():
        ptr = db.pnew(HotObject).ptr
    before = _log_counts(db)
    with db.transaction():
        assert db.deref(ptr).value == 0
    assert _log_counts(db) == before

    recovered = _reopen_after_crash(db, db_path, engine)
    try:
        assert recovered.storage.last_recovery.losers == 0
        with recovered.transaction():
            assert recovered.deref(PersistentPtr(recovered.name, ptr.rid)).value == 0
    finally:
        recovered.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_mvcc_posting_back_to_the_head_logs_and_forces_nothing(db_path, engine):
    db = Database.open(db_path, engine=engine, trigger_cc="mvcc")
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        handle.post_event("Ping")
        handle.post_event("Pong")  # the Watch's steady state
        ptr = handle.ptr
    before = _log_counts(db)
    with db.transaction():
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")  # fires, and returns to the head
    assert _log_counts(db) == before
    assert db.trigger_system.versions.stats.unchanged_merges == 1

    recovered = _reopen_after_crash(db, db_path, engine, trigger_cc="mvcc")
    try:
        assert recovered.storage.last_recovery.losers == 0
    finally:
        recovered.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_open_reader_at_a_crash_is_not_a_loser(db_path, engine):
    """A reader still open when a writer's commit forces the log left
    nothing in it, so recovery finds no transaction to roll back."""
    db = Database.open(db_path, engine=engine)
    with db.transaction():
        ptr = db.pnew(HotObject).ptr
    reader, writer = db.session("reader"), db.session("writer")
    reader.begin()
    assert reader.deref(ptr).value == 0
    with writer.transaction():
        writer.pnew(HotObject)  # commits and forces the log
    recovered = _reopen_after_crash(db, db_path, engine)
    try:
        assert recovered.storage.last_recovery.losers == 0
    finally:
        recovered.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_read_only_abort_logs_nothing_and_a_writer_logs_one_begin(db_path, engine):
    db = Database.open(db_path, engine=engine)
    try:
        with db.transaction():
            ptr = db.pnew(HotObject).ptr
        records, forces = _log_counts(db)
        txn = db.txn_manager.begin()
        db.deref(ptr)
        db.txn_manager.abort(txn)
        assert _log_counts(db) == (records, forces)
        with db.transaction():
            handle = db.deref(ptr)
            handle.value = 1
            handle.value = 2
        # BEGIN + one UPDATE (the flush writes the object once) + COMMIT.
        assert _log_counts(db) == (records + 3, forces + 1)
    finally:
        db.close()


def test_reader_stealing_a_dirty_page_forces_nothing(db_path):
    """The disk pool forces the log before it writes a dirty page back;
    when every appended byte is already durable there is nothing to
    force, so a reader that evicts committed dirty pages pays no fsync."""
    db = Database.open(db_path, engine="disk", buffer_capacity=4)
    try:
        with db.transaction():
            ptrs = [db.pnew(HotObject).ptr for _ in range(600)]
        with db.transaction():
            for ptr in ptrs[::20]:  # dirty pages all over the file
                db.deref(ptr).value = 1
        stats = db.storage.stats
        forces, evictions = stats.log_forces, stats.page_evictions
        with db.transaction():
            assert sum(db.deref(ptr).value for ptr in ptrs) == len(ptrs[::20])
        assert stats.page_evictions > evictions
        assert stats.log_forces == forces
    finally:
        db.close()
