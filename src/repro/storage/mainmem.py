"""The Dali-like main-memory storage manager (MM-Ode's substrate).

Records live in a plain dictionary; transactions keep in-memory undo lists.
Durability (optional, on by default when a path is given) follows Dali's
checkpoint + redo-log design: mutations are appended to an operation log,
and :meth:`checkpoint` writes a snapshot of the committed store and
truncates the log.  Reopening loads the snapshot and replays the log with
the shared :mod:`repro.storage.recovery` passes — the same code the disk
engine uses, mirroring how MM-Ode "shares a great deal of run-time system
code" with disk Ode (paper Section 5.6).

With ``durable=False`` the engine is purely volatile (no files touched),
which is the configuration the performance experiments use to isolate
main-memory costs.
"""

from __future__ import annotations

import os
import struct
import threading
from collections.abc import Iterator

from repro.errors import (
    ReadOnlyStorageError,
    RecordNotFoundError,
    StorageError,
    UnrecoverableMediaError,
)
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.storage.interface import StorageManager
from repro.storage.locks import DEFAULT_LOCK_STRIPES, LockManager, LockMode
from repro.storage.recovery import RecoveryStats, recover
from repro.storage.wal import LogRecord, LogRecordKind, WriteAheadLog

_ROOT_RESOURCE = "ROOT"
_SNAP_HEAD = struct.Struct("<8sqqq")  # magic, next_rid, root, count
_SNAP_REC = struct.Struct("<qI")  # rid, length
_MAGIC = b"ODEREPMM"
_I64 = struct.Struct("<q")


class MainMemoryStorageManager(StorageManager):
    """Transactional in-memory record store with optional durability."""

    def __init__(
        self,
        path: str | None = None,
        durable: bool | None = None,
        injector: FaultInjector = NULL_INJECTOR,
        lock_stripes: int = DEFAULT_LOCK_STRIPES,
        group_commit: bool = False,
    ):
        super().__init__()
        self.path = str(path) if path is not None else None
        self.injector = injector
        self.degraded = False
        self.group_commit = group_commit
        if durable is None:
            durable = path is not None
        if durable and path is None:
            raise StorageError("a durable main-memory store needs a path")
        self.durable = durable
        self._store: dict[int, bytes] = {}
        self._next_rid = 1
        # Engine-wide mutex for threaded sessions: guards the store, the
        # rid counter, per-txn undo lists, and the op log.  Record locks
        # are always taken *outside* it — a blocking lock wait must never
        # hold the engine mutex.
        self._mutex = threading.RLock()
        self._root = self.NO_ROOT
        self._locks = LockManager(stripes=lock_stripes)
        self._active: dict[int, list[LogRecord]] = {}
        self._closed = False
        self._wal: WriteAheadLog | None = None
        self.last_recovery: RecoveryStats | None = None
        if self.durable:
            self._load_snapshot()
            self._wal = WriteAheadLog(
                self.path + ".oplog",
                stats=self.stats,
                injector=injector,
                group_commit=group_commit,
            )
            try:
                self.last_recovery = recover(
                    self._wal.replay(), self._redo, self._undo
                )
                self.checkpoint()
            except BaseException:
                self._wal.crash()  # no fd leaks on a failed/crashed open
                raise

    # -- snapshot / recovery -------------------------------------------------

    def _snapshot_path(self) -> str:
        return self.path + ".snap"

    def _load_snapshot(self) -> None:
        try:
            with open(self._snapshot_path(), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return
        magic, next_rid, root, count = _SNAP_HEAD.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise StorageError(f"{self.path}: not an MM-Ode-repro snapshot")
        pos = _SNAP_HEAD.size
        store: dict[int, bytes] = {}
        for _ in range(count):
            rid, length = _SNAP_REC.unpack_from(raw, pos)
            pos += _SNAP_REC.size
            store[rid] = raw[pos : pos + length]
            pos += length
        self._store = store
        self._next_rid = next_rid
        self._root = root

    def _write_snapshot(self) -> None:
        parts = [
            _SNAP_HEAD.pack(_MAGIC, self._next_rid, self._root, len(self._store))
        ]
        for rid, data in self._store.items():
            parts.append(_SNAP_REC.pack(rid, len(data)))
            parts.append(data)
        tmp = self._snapshot_path() + ".tmp"
        self.injector.fire("snapshot.write")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
            fh.flush()
            os.fsync(fh.fileno())
        # Atomic rename: a crash on either side leaves a usable snapshot
        # (the old one before, the new one after).
        self.injector.fire("snapshot.replace")
        os.replace(tmp, self._snapshot_path())

    def _redo(self, record: LogRecord) -> None:
        if record.kind is LogRecordKind.SET_ROOT:
            (self._root,) = _I64.unpack(record.after)
        elif record.kind in (LogRecordKind.INSERT, LogRecordKind.UPDATE):
            self._store[record.rid] = record.after
            self._next_rid = max(self._next_rid, record.rid + 1)
        elif record.kind is LogRecordKind.DELETE:
            self._store.pop(record.rid, None)

    def _undo(self, record: LogRecord) -> None:
        if record.kind is LogRecordKind.SET_ROOT:
            (self._root,) = _I64.unpack(record.before)
        elif record.kind is LogRecordKind.INSERT:
            self._store.pop(record.rid, None)
        elif record.kind in (LogRecordKind.UPDATE, LogRecordKind.DELETE):
            self._store[record.rid] = record.before

    # -- media degrade ---------------------------------------------------------

    def _degrade(self) -> None:
        if self.degraded:
            return
        self.degraded = True
        self._notify_degraded()

    def _check_writable(self) -> None:
        if self.degraded:
            raise ReadOnlyStorageError(
                f"{self.path}: degraded to read-only after a media error"
            )

    # -- transaction control ---------------------------------------------------

    def begin_transaction(self, txid: int) -> None:
        self._check_open()
        with self._mutex:
            if txid in self._active:
                raise StorageError(f"transaction {txid} already active")
            # BEGIN is logged with the first mutation (see _log): a
            # transaction that never writes leaves no trace in the log.
            self._active[txid] = []

    def commit_transaction(self, txid: int) -> None:
        self._check_open()
        with self._mutex:
            records = self._require_active(txid)
            if self.degraded and records:
                raise ReadOnlyStorageError(
                    f"cannot commit transaction {txid}: "
                    "database degraded to read-only with logged mutations"
                )
            # A read-only commit appends and forces nothing: it could only
            # read what committed writers made durable before releasing
            # their X locks (or, under MVCC, before publishing heads).
            wal = self._wal if records else None
            if wal is not None:
                self.injector.fire("txn.commit.begin", txid=txid)
                try:
                    wal.append(txid, LogRecordKind.COMMIT)
                except UnrecoverableMediaError as exc:
                    self._degrade()
                    raise ReadOnlyStorageError(
                        f"commit of transaction {txid} failed permanently; "
                        "database degraded to read-only"
                    ) from exc
            else:
                del self._active[txid]
                self.stats.commits += 1
        if wal is not None:
            # The durability fsync runs OUTSIDE the engine mutex so group-
            # commit leaders can batch concurrent committers (and even
            # without grouping, overlapping appends are safe: WAL
            # durability is prefix-based).  The txid stays in ``_active``
            # until durable so an abort-after-failure can still undo it.
            try:
                wal.force()
            except UnrecoverableMediaError as exc:
                self._degrade()
                raise ReadOnlyStorageError(
                    f"commit of transaction {txid} failed permanently; "
                    "database degraded to read-only"
                ) from exc
            self.injector.fire("txn.commit.durable", txid=txid)
            with self._mutex:
                del self._active[txid]
                self.stats.commits += 1
        # Outside the mutex: releasing grants queued requests FIFO and
        # wakes the blocked sessions that now hold their locks.
        self._locks.release_all(txid)

    def abort_transaction(self, txid: int) -> None:
        self._check_open()
        with self._mutex:
            self._abort_locked(txid)
        self._locks.release_all(txid)

    def _abort_locked(self, txid: int) -> None:
        records = self._require_active(txid)
        for record in reversed(records):
            compensation = record.inverse()
            if self._wal is not None and not self.degraded:
                try:
                    self._wal.append(
                        txid,
                        compensation.kind,
                        compensation.rid,
                        compensation.before,
                        compensation.after,
                    )
                except UnrecoverableMediaError:
                    self._degrade()  # keep undoing in memory
            self._redo(compensation)
        if records and self._wal is not None and not self.degraded:
            try:
                self._wal.append(txid, LogRecordKind.ABORT)
            except UnrecoverableMediaError:
                self._degrade()
        del self._active[txid]
        self.stats.aborts += 1

    def _require_active(self, txid: int) -> list[LogRecord]:
        try:
            return self._active[txid]
        except KeyError:
            raise StorageError(f"transaction {txid} is not active") from None

    def _open_txids(self) -> frozenset[int]:
        return frozenset(self._active)

    # -- data operations -----------------------------------------------------------

    def _log(self, txid, kind, rid=-1, before=b"", after=b"") -> None:
        """Log one mutation of *txid*, preceded by its BEGIN if it is the
        first; degrades the engine on permanent media failure."""
        records = self._active[txid]
        record = LogRecord(0, txid, kind, rid, bytes(before), bytes(after))
        if self._wal is not None:
            try:
                if not records:
                    self._wal.append(txid, LogRecordKind.BEGIN)
                record = self._wal.append(txid, kind, rid, before, after)
            except UnrecoverableMediaError as exc:
                self._degrade()
                raise ReadOnlyStorageError(
                    f"{self.path}: log append failed permanently; "
                    "database degraded to read-only"
                ) from exc
        records.append(record)

    def insert(self, txid: int, data: bytes) -> int:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        with self._mutex:
            rid = self._next_rid
            self._next_rid += 1
        # A fresh rid is invisible to other transactions: the X lock is
        # granted immediately, it just records the holding for 2PL.
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            self._log(txid, LogRecordKind.INSERT, rid, b"", data)
            self._store[rid] = bytes(data)
            self.stats.inserts += 1
        return rid

    def read(self, txid: int, rid: int) -> bytes:
        self._check_open()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.S)
        with self._mutex:
            try:
                data = self._store[rid]
            except KeyError:
                raise RecordNotFoundError(f"rid {rid} not found") from None
            self.stats.reads += 1
        return data

    def write(self, txid: int, rid: int, data: bytes) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            try:
                before = self._store[rid]
            except KeyError:
                raise RecordNotFoundError(f"rid {rid} not found") from None
            self._log(txid, LogRecordKind.UPDATE, rid, before, data)
            self._store[rid] = bytes(data)
            self.stats.writes += 1

    def write_merged(self, txid: int, rid: int, data: bytes) -> None:
        # Lock-free by contract: the MVCC version manager's commit mutex
        # is the only serialization (see StorageManager.write_merged).
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        with self._mutex:
            try:
                before = self._store[rid]
            except KeyError:
                raise RecordNotFoundError(f"rid {rid} not found") from None
            self._log(txid, LogRecordKind.UPDATE, rid, before, data)
            self._store[rid] = bytes(data)
            self.stats.writes += 1

    def peek(self, rid: int) -> bytes:
        self._check_open()
        with self._mutex:
            try:
                return self._store[rid]
            except KeyError:
                raise RecordNotFoundError(f"rid {rid} not found") from None

    def delete(self, txid: int, rid: int) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            try:
                before = self._store[rid]
            except KeyError:
                raise RecordNotFoundError(f"rid {rid} not found") from None
            self._log(txid, LogRecordKind.DELETE, rid, before, b"")
            del self._store[rid]
            self.stats.deletes += 1

    def exists(self, txid: int, rid: int) -> bool:
        self._check_open()
        self._require_active(txid)
        return rid in self._store

    def scan(self, txid: int) -> Iterator[tuple[int, bytes]]:
        self._check_open()
        self._require_active(txid)
        with self._mutex:
            rids = sorted(self._store)
        for rid in rids:
            self._locks.lock(txid, rid, LockMode.S)
            with self._mutex:
                data = self._store.get(rid)
            if data is not None:
                yield rid, data

    # -- root pointer ------------------------------------------------------------------

    def get_root(self) -> int:
        self._check_open()
        return self._root

    def set_root(self, txid: int, rid: int) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, _ROOT_RESOURCE, LockMode.X)
        with self._mutex:
            self._log_set_root(txid, rid)

    def _log_set_root(self, txid: int, rid: int) -> None:
        self._log(
            txid,
            LogRecordKind.SET_ROOT,
            -1,
            _I64.pack(self._root),
            _I64.pack(rid),
        )
        self._root = rid

    # -- lifecycle ------------------------------------------------------------------------

    def checkpoint(self) -> None:
        self._check_open()
        if self.degraded:
            return
        if self._active:
            raise StorageError("cannot checkpoint with active transactions")
        if not self.durable:
            return
        try:
            self.injector.fire("checkpoint.begin")
            self._write_snapshot()
            self.injector.fire("checkpoint.before_truncate")
            assert self._wal is not None
            self._wal.truncate()
            self.injector.fire("checkpoint.end")
        except UnrecoverableMediaError as exc:
            self._degrade()
            raise ReadOnlyStorageError(
                f"{self.path}: checkpoint failed permanently; "
                "database degraded to read-only"
            ) from exc

    def close(self) -> None:
        if self._closed:
            return
        for txid in list(self._active):
            self.abort_transaction(txid)
        if self.durable:
            if not self.degraded:
                try:
                    self.checkpoint()
                except ReadOnlyStorageError:
                    pass
            assert self._wal is not None
            if self.degraded:
                # Drop any unforced tail — e.g. a COMMIT whose force
                # failed and which the application saw refused.
                self._wal.crash()
            else:
                self._wal.close()
        self._closed = True

    def simulate_crash(self) -> None:
        """Drop all volatile state; only snapshot + *forced* op-log survive.

        Like the disk engine, the unforced log tail is truncated away — a
        real crash loses whatever was never fsynced.
        """
        if self._closed:
            return
        if self._wal is not None:
            self._wal.crash()
        self._store.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage manager is closed")

    @property
    def lock_manager(self) -> LockManager:
        return self._locks
