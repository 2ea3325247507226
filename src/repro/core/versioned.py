"""Versioned TriggerState — the MVCC advance path (DESIGN.md §15).

The paper's Section 6 complaint is that *"triggers turn read access into
write access"*: every FSM advance rewrites the persistent TriggerState
under an exclusive lock, so identical read-only client code starts waiting
and deadlocking the moment triggers are active (experiment E6).  This
module is the second concurrency-control scheme for trigger state —
selected per open with ``Database.open(..., trigger_cc="mvcc")``, with
strict 2PL (``"2pl"``) remaining the baseline:

* **Advance buffer.**  A posting never writes the state record.  The
  first advance of a machine in a transaction clones the latest
  *committed* version of its TriggerState into a per-transaction
  :class:`BufferEntry`; the FSM advances against that private copy, and
  every ``(eventnum, occurrence, mask outcomes)`` it consumes is appended
  to the entry — the outcomes are what the masks said *at posting time*,
  so a commit-time replay cannot be skewed by later mutations of the
  anchor object.  Read-only transactions therefore take **zero X locks**
  on ``state:*`` records, and the E6 deadlock cycle cannot form.

* **Version chain.**  :class:`TriggerVersionManager` keeps, per state
  rid, a chain of immutable :class:`StateVersion` snapshots.  The head is
  always the latest *committed* image; chains are created lazily from the
  storage engine's committed bytes (``storage.peek`` — no locks) and a
  new head is published only after the publishing transaction's commit
  record is durable.

* **Commit-time merge.**  At commit, each buffered entry is validated
  against the then-current head.  If the base version is still the head,
  the working copy *is* the merged state (first-committer fast path).  On
  a lost update — another transaction published a newer version since we
  buffered — the outcome follows the selectable ``conflict_policy``:
  ``"replay"`` (default) re-advances the buffered event sequence
  deterministically from the newer head; ``"abort"`` raises
  :class:`~repro.errors.TriggerStateConflictError`, which the unified
  retry classifier treats like a deadlock (the whole transaction retries).
  Merged states are written through the normal WAL (``UPDATE`` records
  with before-images), so crash recovery, ``fsck`` ODE1xx, and the abort
  path need no new machinery.

The merge → storage-commit → publish sequence runs under the manager's
``commit_mutex`` so no other transaction can validate against a head that
is about to change.  A merge that *fails* (conflict abort, storage error)
rolls back under the same mutex — merged writes carry no record locks, so
their WAL undo must not interleave with another committer's
``write_merged``.  Nothing inside that critical section can wait on the
lock manager (fresh-insert writes re-acquire an X lock the inserting
transaction already holds, which grants immediately, and the failure
path defers its system-queue drain until the mutex is released), so the
cooperative scheduler cannot wedge on it.

The commit mutex is **sharded by state rid** (:class:`ShardedCommitMutex`,
``rid % shards``): a committer takes only the shards covering the rids in
its advance buffer, in ascending shard order (total order, so no ABBA
deadlock between committers).  Two transactions whose buffered machines
hash to disjoint shards validate, merge, and publish fully concurrently —
a second global serial point removed, after the storage engine's own
commit restructure.  All of the exclusion arguments above are per rid:
validation of rid *r* against its head, the lock-free ``write_merged`` of
*r*, *r*'s WAL undo on a failed merge, and the publish of *r*'s new head
all happen under shard ``r % N``, which is exactly what the single mutex
guaranteed.

Known semantic window: firings are dispatched optimistically at posting
time from the buffered view.  A ``"replay"`` merge repairs the committed
*state*, not actions that already ran — the same anomaly Ode accepts for
detached coupling modes, documented in DESIGN.md §15.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import threading
from typing import TYPE_CHECKING

from repro import obs
from repro.core.trigger_state import TriggerState
from repro.errors import RecordNotFoundError, TriggerStateConflictError

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction

#: Per-transaction attachment key holding the :class:`AdvanceBuffer`.
ADVANCE_BUFFER = "trigger:advance_buffer"

#: The selectable lost-update policies.
CONFLICT_POLICIES = ("replay", "abort")

#: Shards of the commit mutex (rid -> rid % N).  Small relative to the
#: lock manager's stripe count: commit sections are short, and a txn
#: acquires every shard its buffer covers, so more shards raises the
#: per-commit acquisition count faster than it lowers contention.
DEFAULT_COMMIT_SHARDS = 8


class ShardedCommitMutex:
    """The commit mutex, sharded by state rid (``rid % shards``).

    Each shard is an :class:`threading.RLock`; a committer acquires the
    shards covering its advance buffer in **ascending index order** via
    :meth:`TriggerVersionManager.commit_lock`, so two committers can
    never hold-and-wait in opposite orders.  Used as a plain context
    manager it takes *every* shard (a stop-the-world section, the exact
    behavior of the old single RLock — diagnostics and tests that want
    to freeze all heads still can).
    """

    def __init__(self, shards: int = DEFAULT_COMMIT_SHARDS) -> None:
        if shards < 1:
            raise ValueError(f"commit shards must be >= 1, got {shards}")
        self._shards = tuple(threading.RLock() for _ in range(shards))

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_of(self, rid: int) -> int:
        return rid % len(self._shards)

    def indices_for(self, rids) -> list[int]:
        """The sorted shard indices covering *rids* (all shards if empty —
        a committer with no identifiable footprint must exclude everyone)."""
        if not rids:
            return list(range(len(self._shards)))
        return sorted({self.shard_of(rid) for rid in rids})

    @contextlib.contextmanager
    def acquire(self, rids):
        """Hold the shards covering *rids*, ascending; release reversed."""
        indices = self.indices_for(rids)
        acquired: list[int] = []
        try:
            for index in indices:
                self._shards[index].acquire()
                acquired.append(index)
            yield
        finally:
            for index in reversed(acquired):
                self._shards[index].release()

    # -- single-RLock compatibility surface --------------------------------

    def __enter__(self) -> "ShardedCommitMutex":
        for shard in self._shards:
            shard.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        for shard in reversed(self._shards):
            shard.release()

    def _is_owned(self) -> bool:
        """Whether the calling thread holds at least one shard (the old
        ``RLock._is_owned`` probe the rollback-under-mutex test uses)."""
        return any(shard._is_owned() for shard in self._shards)


@dataclasses.dataclass(frozen=True)
class StateVersion:
    """One immutable committed snapshot of a TriggerState record."""

    vid: int
    state: TriggerState  # never mutated after publication
    prev: "StateVersion | None" = None

    def chain_length(self) -> int:
        length, node = 0, self
        while node is not None:
            length += 1
            node = node.prev
        return length


class BufferEntry:
    """One machine's private working copy inside a transaction.

    ``state`` is a clone the FSM advances against; ``events`` is the
    ordered ``(eventnum, occurrence, mask outcomes)`` log the commit-time
    merge replays on conflict — the outcomes dict snapshots what every
    mask evaluated to *when the event was posted*, so replay is immune to
    the transaction mutating the anchor object afterwards.  ``obj`` is
    kept only as a last-resort evaluation anchor for a mask whose
    posting-time capture raised (the same per-transaction cached instance
    posting used, so replay never dereferences — and never locks —
    anything new at commit time).  ``fresh`` marks a machine activated by
    this very transaction: its record was inserted (under the X lock
    inserts always grant immediately) and has no committed base version
    to validate against.
    """

    __slots__ = (
        "base_vid",
        "state",
        "info",
        "defining",
        "obj",
        "events",
        "fresh",
        "advance",
        "advance_version",
    )

    def __init__(self, *, base_vid, state, info, defining, obj, fresh=False):
        self.base_vid = base_vid
        self.state = state
        self.info = info
        self.defining = defining
        self.obj = obj
        self.events: list = []
        self.fresh = fresh
        #: The advance posting resolved for this machine (generated or
        #: interpreted), re-resolved when the tier's schema version moves.
        self.advance = None
        self.advance_version = None


class AdvanceBuffer:
    """The per-transaction advance buffer (dies with the transaction)."""

    def __init__(self) -> None:
        self.entries: dict[int, BufferEntry] = {}
        #: rids this transaction deactivated/deleted; the merge skips
        #: them and publication drops their chains.
        self.deactivated: set[int] = set()

    def __bool__(self) -> bool:
        return bool(self.entries or self.deactivated)


@dataclasses.dataclass
class MvccStats:
    """Counters for the versioned scheme (mounted as ``mvcc.*``).

    Same discipline as :class:`~repro.storage.locks.LockStats`: every
    increment happens under :attr:`_mutex` (the owning
    :class:`TriggerVersionManager` shares its chain mutex in), and
    :meth:`snapshot`/:meth:`reset` take it too — posting increments
    ``buffered_advances`` from concurrent session threads, so an
    unguarded ``+=`` would lose counts and a reset racing an increment
    would tear.
    """

    #: FSM advances served from the buffer instead of a locked write
    buffered_advances: int = 0
    #: version chains materialized from committed storage bytes
    chains_loaded: int = 0
    #: buffered entries merged at commit
    merges: int = 0
    #: merges whose base version was still the committed head
    clean_merges: int = 0
    #: lost-update conflicts detected at merge time
    conflicts: int = 0
    #: conflicts resolved by deterministic event replay
    replays: int = 0
    #: conflicts resolved by aborting the merging transaction
    conflict_aborts: int = 0
    #: new committed versions published
    versions_published: int = 0

    def __post_init__(self) -> None:
        # Standalone instances (tests) get their own lock; a version
        # manager replaces it with its chain mutex so snapshot/reset
        # serialize against the increments themselves.
        self._mutex = threading.Lock()

    def snapshot(self) -> dict[str, int]:
        with self._mutex:
            return {
                field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
            }

    def reset(self) -> None:
        with self._mutex:
            for field in dataclasses.fields(self):
                setattr(self, field.name, 0)


class TriggerVersionManager:
    """Copy-on-write TriggerState versions for one database."""

    def __init__(
        self,
        db: "Database",
        conflict_policy: str = "replay",
        commit_shards: int = DEFAULT_COMMIT_SHARDS,
    ):
        if conflict_policy not in CONFLICT_POLICIES:
            raise ValueError(
                f"unknown MVCC conflict policy {conflict_policy!r}: "
                f"expected one of {CONFLICT_POLICIES}"
            )
        self.db = db
        self.conflict_policy = conflict_policy
        #: state rid -> committed head version.
        self._chains: dict[int, StateVersion] = {}
        self._chain_mutex = threading.Lock()
        self.stats = MvccStats()
        # Counter increments share the chain mutex (LockStats discipline):
        # sites already inside ``with self._chain_mutex`` increment
        # directly; everything else takes ``stats._mutex``.
        self.stats._mutex = self._chain_mutex
        #: Serializes [merge -> storage commit -> publish] per state-rid
        #: shard; reentrant shards so a diagnostic inside the section can
        #: still read heads.
        self.commit_mutex = ShardedCommitMutex(commit_shards)
        self._vids = itertools.count(1)

    # -- buffers ---------------------------------------------------------------

    def buffer_of(self, txn: "Transaction") -> AdvanceBuffer:
        return txn.attachment(ADVANCE_BUFFER, AdvanceBuffer)

    def pending(self, txn: "Transaction") -> bool:
        """Whether *txn* has buffered work for the commit-time merge."""
        buffer = txn.attachments.get(ADVANCE_BUFFER)
        return buffer is not None and bool(buffer)

    def register_fresh(
        self, txn: "Transaction", state_rid: int, tstate, info, defining, obj
    ) -> None:
        """Adopt a machine activated by *txn* itself into its buffer.

        The activation insert already holds the record's X lock; the
        merge re-writes it through the normal locked path, and the chain
        head is created only if the transaction commits.  Storage may hand
        out the rid of a machine this transaction deactivated: that rid is
        live again, and :meth:`publish` starts its chain afresh.
        """
        buffer = self.buffer_of(txn)
        buffer.deactivated.discard(state_rid)
        buffer.entries[state_rid] = BufferEntry(
            base_vid=0,
            state=tstate,
            info=info,
            defining=defining,
            obj=obj,
            fresh=True,
        )

    def mark_deactivated(self, txn: "Transaction", state_rid: int) -> None:
        """Record that *txn* deactivated the machine at *state_rid*."""
        buffer = self.buffer_of(txn)
        buffer.entries.pop(state_rid, None)
        buffer.deactivated.add(state_rid)

    # -- the version chain -----------------------------------------------------

    def committed_head(self, state_rid: int) -> StateVersion:
        """The latest committed version of *state_rid*'s TriggerState.

        Chains are loaded lazily from the engine's committed bytes via
        ``storage.peek`` — lock-free, which is sound because a state rid
        only becomes visible to other transactions once its activating
        transaction committed (the trigger index bucket is 2PL-locked),
        and every later mutation goes through this manager, which keeps
        the chain current.
        """
        with self._chain_mutex:
            head = self._chains.get(state_rid)
        if head is not None:
            return head
        raw = self.db.storage.peek(state_rid)
        state = TriggerState.decode(raw)
        with self._chain_mutex:
            head = self._chains.get(state_rid)
            if head is None:
                head = StateVersion(next(self._vids), state)
                self._chains[state_rid] = head
                self.stats.chains_loaded += 1
            return head

    def head_or_none(self, state_rid: int) -> StateVersion | None:
        with self._chain_mutex:
            return self._chains.get(state_rid)

    # -- commit-time merge ------------------------------------------------------

    def commit_lock(self, txn: "Transaction"):
        """The commit-mutex section covering *txn*'s advance buffer.

        Resolves the buffer's rid footprint (entries + deactivations) to
        commit-mutex shards and holds them, ascending, for the duration —
        everything :meth:`commit_merge` and :meth:`publish` touch for a
        rid happens under that rid's shard.  The footprint is fixed once
        the merge starts (posting is over; the buffer dies with the
        transaction), so the shard set computed here covers the whole
        section.
        """
        buffer = txn.attachments.get(ADVANCE_BUFFER)
        rids: set[int] = set()
        if buffer is not None:
            rids.update(buffer.entries)
            rids.update(buffer.deactivated)
        return self.commit_mutex.acquire(rids)

    def commit_merge(self, txn: "Transaction") -> list[tuple[int, TriggerState]]:
        """Validate and write *txn*'s buffered advances; returns the
        ``(rid, merged state)`` pairs to publish after the storage commit.

        Must run under :meth:`commit_lock`.  Raises
        :class:`TriggerStateConflictError` when a lost update is found
        and the policy is ``"abort"`` — before the storage commit, so the
        ordinary abort path rolls back everything (including any merged
        WAL writes already applied, via their before-images).
        """
        buffer = txn.attachments.get(ADVANCE_BUFFER)
        if buffer is None:
            return []
        storage = self.db.storage
        publishes: list[tuple[int, TriggerState]] = []
        for state_rid in sorted(buffer.entries):
            if state_rid in buffer.deactivated:
                continue
            entry = buffer.entries[state_rid]
            if entry.fresh:
                # Activated by this transaction: the insert wrote the
                # quiesced state and still holds the X lock, so this
                # write grants immediately (no wait inside the mutex).
                if entry.events:
                    storage.write(txn.txid, state_rid, entry.state.encode())
                publishes.append((state_rid, entry.state))
                continue
            if not entry.events:
                continue  # loaded but never advanced: nothing to merge
            if not storage.exists(txn.txid, state_rid):
                continue  # deactivated+committed elsewhere; chain already dropped
            head = self.committed_head(state_rid)
            if head.vid == entry.base_vid:
                merged = entry.state
                with self._chain_mutex:
                    self.stats.merges += 1
                    self.stats.clean_merges += 1
            else:
                with self._chain_mutex:
                    self.stats.merges += 1
                    self.stats.conflicts += 1
                if self.conflict_policy == "abort":
                    with self._chain_mutex:
                        self.stats.conflict_aborts += 1
                    if obs.ENABLED:
                        obs.emit(
                            "mvcc.conflict",
                            txid=txn.txid,
                            state_rid=state_rid,
                            base_vid=entry.base_vid,
                            head_vid=head.vid,
                            resolution="abort",
                        )
                    raise TriggerStateConflictError(
                        txn.txid, state_rid, entry.base_vid, head.vid
                    )
                merged = self._replay(entry, head.state)
                with self._chain_mutex:
                    self.stats.replays += 1
                if obs.ENABLED:
                    obs.emit(
                        "mvcc.conflict",
                        txid=txn.txid,
                        state_rid=state_rid,
                        base_vid=entry.base_vid,
                        head_vid=head.vid,
                        resolution="replay",
                    )
            # The WAL-logged, lock-free write: exclusion comes from the
            # commit mutex, not the lock manager — this is exactly the
            # "state:* stops being X-locked" property E6 measures.
            storage.write_merged(txn.txid, state_rid, merged.encode())
            publishes.append((state_rid, merged))
        return publishes

    def publish(
        self, txn: "Transaction", publishes: list[tuple[int, TriggerState]]
    ) -> None:
        """Install the merged states as new committed heads.

        Called under :meth:`commit_lock`, *after* the storage commit is
        durable — a published head must never precede its durability.
        """
        buffer = txn.attachments.get(ADVANCE_BUFFER)
        entries = buffer.entries if buffer is not None else {}
        with self._chain_mutex:
            for state_rid, state in publishes:
                entry = entries.get(state_rid)
                # A machine this transaction activated has no history,
                # even if its rid once belonged to a deactivated one.
                fresh = entry is not None and entry.fresh
                prev = None if fresh else self._chains.get(state_rid)
                self._chains[state_rid] = StateVersion(
                    next(self._vids), state, prev
                )
                self.stats.versions_published += 1
            if buffer is not None:
                for state_rid in buffer.deactivated:
                    self._chains.pop(state_rid, None)

    # -- deterministic replay ---------------------------------------------------

    def _replay(self, entry: BufferEntry, base: TriggerState) -> TriggerState:
        """Re-advance *entry*'s buffered event log from *base*.

        Deterministic by construction: the event sequence and the mask
        outcomes are the ones recorded when each event was posted —
        replaying from a *different* head may walk a different DFA path,
        but every mask it can ask about was captured at posting time, so
        a transaction that mutated the anchor object *after* posting
        cannot make the merge disagree with its own observed run.  Only a
        mask whose capture raised falls back to a live evaluation against
        ``entry.obj`` (2PL on ordinary objects means nobody else changed
        it under us).
        """
        from repro.core.posting import recorded

        info = entry.info
        merged = base.clone()
        for eventnum, occurrence, outcomes in entry.events:
            masks = {
                name: recorded(outcomes[name]) if name in outcomes else mask
                for name, mask in info.masks.items()
            }
            advance = info.interpreter.rebind(masks)
            merged.statenum = advance(
                merged.statenum, eventnum, entry.obj, merged.params, occurrence
            )[0]
        return merged

    # -- introspection ----------------------------------------------------------

    def chain_lengths(self) -> dict[int, int]:
        """rid -> published-chain length (diagnostics/tests)."""
        with self._chain_mutex:
            return {rid: head.chain_length() for rid, head in self._chains.items()}
