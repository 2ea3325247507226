"""Soundness of the read-path caches and of no-op MVCC merges.

* The committed-header cache of :class:`~repro.objects.pmap.PersistentMap`
  (one per open) is never filled from an uncommitted header: an aborted
  bucket allocation leaves no freed rid behind, and a reader blocked on
  the allocator's header X lock sees the committed header afterwards.
* The per-transaction bucket cache follows the transaction's own writes.
* An MVCC merge that brings a machine back to its committed head
  publishes nothing, so an overlapping transaction needs no replay —
  unless the other one really moved the state.

Every test runs on both storage engines.
"""

from __future__ import annotations

import pytest

from repro.core.declarations import trigger
from repro.errors import TransactionAbort
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.pmap import BUCKET_CACHE, _encode
from repro.sessions.scheduler import CooperativeScheduler
from repro.workloads.locksim import HotObject

ENGINES = ["disk", "mm"]

FIRED = "test:probe_fired"


def _count(self, ctx) -> None:
    ctx.txn.attachment(FIRED, list).append(self.ptr)


class CacheProbe(Persistent):
    """``Seen`` fires on every ``Tick``."""

    __events__ = ["Tick"]
    __triggers__ = [trigger("Seen", "Tick", action=_count, perpetual=True)]


@pytest.fixture(params=ENGINES)
def db(request, db_path):
    database = Database.open(db_path, engine=request.param)
    yield database
    if not database.closed:
        database.close()


def _other_slot_key(index, taken: int) -> int:
    """An object rid whose index bucket differs from *taken*'s."""
    slot = index._map._bucket_for
    return next(k for k in range(2, 10_000) if slot(str(k)) != slot(str(taken)))


def _committed_bucket_rids(index) -> set[int]:
    committed = index._map._committed
    return set() if committed is None else {r for r in committed if r >= 0}


def test_aborted_allocation_leaves_no_freed_rid_in_the_cache(db):
    index = db.trigger_system.index
    with db.transaction() as txn:
        index.add(txn, 1, 111)  # allocates the header and one bucket
    with db.transaction() as txn:
        assert index.lookup(txn, 1) == [111]  # fills the committed header
    key = _other_slot_key(index, 1)

    txn = db.txn_manager.begin()
    index.add(txn, key, 222)  # allocates a second bucket ...
    header = index._map._load_header(txn, create=False)[1]
    freed = header[index._map._bucket_for(str(key))]
    assert index.lookup(txn, key) == [222]
    db.txn_manager.abort(txn)  # ... and frees it again
    assert freed not in _committed_bucket_rids(index)

    with db.transaction() as txn:
        # Reuse what the abort freed (the disk engine hands the slot out
        # again) with a bucket-shaped record naming a bogus state.
        for _ in range(4):
            db.storage.insert(txn.txid, _encode({str(key): [999]}))
        assert index.lookup(txn, key) == []
        assert index.lookup(txn, 1) == [111]


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_reader_blocked_on_the_allocation_sees_the_committed_header(db, outcome):
    index = db.trigger_system.index
    with db.transaction() as txn:
        index.add(txn, 1, 111)
    with db.transaction() as txn:
        index.lookup(txn, 1)  # the cache now holds the committed header
    key = _other_slot_key(index, 1)
    sched = CooperativeScheduler()
    allocator, reader = db.session("allocator"), db.session("reader")
    seen = {}

    def allocate():
        with allocator.transaction() as txn:
            index.add(txn, key, 222)  # X-locks the header
            sched.yield_now()  # the reader arrives and blocks on it
            if outcome == "abort":
                raise TransactionAbort

    def read():
        with reader.transaction() as txn:
            seen["states"] = index.lookup(txn, key)

    sched.spawn(allocate, "allocator", session=allocator)
    sched.spawn(read, "reader", session=reader)
    sched.run()

    assert ("block", "reader") in sched.log
    assert seen["states"] == ([222] if outcome == "commit" else [])
    with db.transaction() as txn:
        assert index.lookup(txn, key) == seen["states"]
        header = index._map._load_header(txn, create=False)[1]
    assert index._map._committed == tuple(header)


def test_bucket_cache_follows_the_transactions_own_writes(db):
    with db.transaction():
        handle = db.pnew(CacheProbe)
        db.trigger_system.deactivate(handle.Seen())  # allocates its bucket
        ptr = handle.ptr
    with db.transaction() as txn:
        handle = db.deref(ptr)
        tid = handle.Seen()
        handle.post_event("Tick")
        db.trigger_system.deactivate(tid)
        handle.post_event("Tick")
        assert txn.attachment(FIRED, list) == [ptr]
        assert txn.attachments[BUCKET_CACHE]  # the lookups used the cache
    with db.transaction():
        assert db.trigger_system.active_triggers(ptr) == []


@pytest.fixture(params=ENGINES)
def mvcc_db(request, db_path):
    database = Database.open(db_path, engine=request.param, trigger_cc="mvcc")
    yield database
    if not database.closed:
        database.close()


def _overlapping(db, ptr, first_events, second_events):
    """Two sessions buffer against the same head; *first* commits first."""
    sched = CooperativeScheduler()

    def program(session, events):
        def run():
            txn = session.begin()
            handle = session.deref(ptr)
            handle.post_event(events[0])
            sched.yield_now()  # both buffer before either commits
            for event in events[1:]:
                handle.post_event(event)
            session.commit()
            return txn

        return run

    sessions = [db.session("first"), db.session("second")]
    for session, events in zip(sessions, (first_events, second_events)):
        sched.spawn(program(session, events), session.name, session=session)
    sched.run()


def _armed_watch(db):
    """A Watch in its steady state: Ping then Pong brings it back."""
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        handle.post_event("Ping")
        handle.post_event("Pong")
        return handle.ptr


def test_overlapping_returns_to_the_head_neither_conflict_nor_publish(mvcc_db):
    ptr = _armed_watch(mvcc_db)
    versions = mvcc_db.trigger_system.versions
    (state_rid,) = versions.head_rids()
    vid = versions.head_or_none(state_rid).vid
    before = versions.stats.snapshot()

    _overlapping(mvcc_db, ptr, ("Ping", "Pong"), ("Ping", "Pong"))

    after = versions.stats.snapshot()
    assert after["merges"] - before["merges"] == 2
    assert after["unchanged_merges"] - before["unchanged_merges"] == 2
    assert after["conflicts"] == before["conflicts"]
    assert after["replays"] == before["replays"]
    assert after["versions_published"] == before["versions_published"]
    assert versions.head_or_none(state_rid).vid == vid


def test_a_state_move_still_makes_the_overlapping_return_replay(mvcc_db):
    ptr = _armed_watch(mvcc_db)
    versions = mvcc_db.trigger_system.versions
    (state_rid,) = versions.head_rids()
    armed = versions.head_or_none(state_rid).state.statenum
    before = versions.stats.snapshot()

    _overlapping(mvcc_db, ptr, ("Ping",), ("Ping", "Pong"))

    after = versions.stats.snapshot()
    assert after["conflicts"] - before["conflicts"] == 1
    assert after["replays"] - before["replays"] == 1
    # Serially: Ping (moves the head), then Ping, Pong (back to armed).
    assert versions.head_or_none(state_rid).state.statenum == armed
    with mvcc_db.transaction():
        (_, state, _), = mvcc_db.trigger_system.active_triggers(ptr)
        assert state.statenum == armed
