"""The EOS-like disk storage manager.

Records live in slotted pages cached by an LRU buffer pool; mutations are
value-logged to a write-ahead log (STEAL/NO-FORCE: dirty pages may be
evicted before commit — the pool forces the log first — and commit forces
only the log).  Strict two-phase locking at record granularity.

Record identifiers pack a page number and slot number
(``rid = page_no << 16 | slot_no``).  Updates that outgrow their page leave
a *forwarding* record at the home slot so rids stay stable — essential
because the object manager hands rids out as persistent pointers.

Physical record encoding (first byte is a flag):

* ``0x00`` + u16 length + data (padded to ≥ 9 bytes) — stored inline; the
  padding guarantees an in-place upgrade to a forward pointer is always
  possible, even on a full page,
* ``0x01`` + 8-byte rid — forwarded; the body lives at the target rid,
* ``0x02`` + data — a body (or final body segment); skipped by scans,
* ``0x03`` + 8-byte next rid + data — a body segment with a continuation:
  records larger than a page span a chain of segments, so B-tree nodes and
  other big values fit the engine.

Page 0 is a header page holding a magic string and the committed root rid.

Crash model: :meth:`simulate_crash` closes the files without flushing *and
drops the unforced WAL tail* (``WriteAheadLog.crash``) — a real crash loses
everything the OS page cache held, so only fsynced state survives.  The
next open runs :mod:`repro.storage.recovery`.

Media model: an :class:`~repro.errors.UnrecoverableMediaError` from any
write path degrades the manager to read-only — committed state stays
readable, every later mutation raises
:class:`~repro.errors.ReadOnlyStorageError`, and close drops the unforced
log tail so no half-acknowledged commit surfaces after restart.
"""

from __future__ import annotations

import struct
import threading
from collections.abc import Iterator

from repro.errors import (
    PageFullError,
    ReadOnlyStorageError,
    RecordNotFoundError,
    StorageError,
    UnrecoverableMediaError,
    WALError,
)
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.storage.buffer import BufferPool, PagedFile
from repro.storage.interface import StorageManager
from repro.storage.locks import DEFAULT_LOCK_STRIPES, LockManager, LockMode
from repro.storage.page import PAGE_SIZE, USABLE_END, SlottedPage
from repro.storage.recovery import RecoveryStats, recover
from repro.storage.wal import LogRecord, LogRecordKind, WriteAheadLog

_MAGIC = b"ODEREPRO"
_HEADER_FMT = struct.Struct("<8sq")  # magic, root rid
_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1

_FLAG_INLINE = 0
_FLAG_FORWARD = 1
_FLAG_MOVED = 2  # body (or final body segment) of a forwarded record
_FLAG_SEGMENT = 3  # body segment with a continuation: 8-byte next rid + chunk

_ROOT_RESOURCE = "ROOT"

_FWD = struct.Struct("<q")

#: Largest record data stored inline / per body segment.  Anything bigger
#: is spanned across a chain of segment records (flag 3 ... flag 2), so
#: records of arbitrary size — B-tree nodes included — fit the engine.
_MAX_CHUNK = 3500

# Inline payloads are length-prefixed and padded to at least the size of a
# forward pointer (9 bytes), so converting an inline record to a forward
# can always be done in place — even on a completely full page.
_INLINE_HEAD = struct.Struct("<BH")  # flag, data length
_MIN_PAYLOAD = 1 + _FWD.size


def _inline_payload(data: bytes) -> bytes:
    payload = _INLINE_HEAD.pack(_FLAG_INLINE, len(data)) + data
    if len(payload) < _MIN_PAYLOAD:
        payload += b"\x00" * (_MIN_PAYLOAD - len(payload))
    return payload


def _inline_data(payload: bytes) -> bytes:
    _, length = _INLINE_HEAD.unpack_from(payload, 0)
    return payload[_INLINE_HEAD.size : _INLINE_HEAD.size + length]


def pack_rid(page_no: int, slot_no: int) -> int:
    """Combine a page number and slot number into a record id."""
    return (page_no << _SLOT_BITS) | slot_no


def unpack_rid(rid: int) -> tuple[int, int]:
    """Split a record id into its page number and slot number."""
    return rid >> _SLOT_BITS, rid & _SLOT_MASK


class DiskStorageManager(StorageManager):
    """Transactional slotted-page store with WAL recovery and 2PL."""

    def __init__(
        self,
        path: str,
        buffer_capacity: int = 128,
        injector: FaultInjector = NULL_INJECTOR,
        lock_stripes: int = DEFAULT_LOCK_STRIPES,
        group_commit: bool = False,
    ):
        super().__init__()
        self.path = str(path)
        self.injector = injector
        self.degraded = False
        self.group_commit = group_commit
        self._file = PagedFile(
            self.path + ".data", injector=injector, stats=self.stats
        )
        self._wal = None
        try:
            self._wal = WriteAheadLog(
                self.path + ".wal",
                stats=self.stats,
                injector=injector,
                group_commit=group_commit,
            )
            self._pool = BufferPool(
                self._file,
                capacity=buffer_capacity,
                stats=self.stats,
                # WAL-before-data staging: force() returns only once every
                # byte appended so far is durable, which is exactly the
                # write-ahead rule — so a STEAL eviction may ride a commit
                # leader's batched fsync instead of paying its own.
                pre_write=self._wal.force,
            )
            self._locks = LockManager(stripes=lock_stripes)
            # Engine-wide mutex for threaded sessions: guards pages, the
            # buffer pool, the free map, per-txn undo lists, and the WAL.
            # Record locks are always taken *outside* it — a blocking lock
            # wait must never hold the engine mutex.
            self._mutex = threading.RLock()
            self._active: dict[int, list[LogRecord]] = {}
            self._page_free: dict[int, int] = {}
            self._root = self.NO_ROOT
            self._closed = False
            self.last_recovery: RecoveryStats | None = None
            self._bootstrap()
        except BaseException:
            # Construction failed (corrupt log, injected crash, ...): do
            # not leak the file descriptors — the crash harness reopens
            # the same path hundreds of times in one process.
            self._file.close()
            if self._wal is not None:
                self._wal.crash()
            raise

    # -- bootstrap / recovery -------------------------------------------------

    def _bootstrap(self) -> None:
        if self._file.num_pages == 0:
            self._file.allocate_page()  # header page
            self._write_header()
        else:
            self._read_header()
        self._rebuild_free_map()
        self.last_recovery = recover(self._wal.replay(), self._redo, self._undo)
        self.checkpoint()

    def _write_header(self) -> None:
        raw = bytearray(PAGE_SIZE)
        _HEADER_FMT.pack_into(raw, 0, _MAGIC, self._root)
        self._file.write_page(0, raw)

    def _read_header(self) -> None:
        raw = self._file.read_page(0)
        magic, root = _HEADER_FMT.unpack_from(raw, 0)
        if magic != _MAGIC:
            if not any(raw[:USABLE_END]):
                # A crash between allocating page 0 and stamping the
                # header leaves a zeroed (CRC-only) page: finish that
                # interrupted bootstrap.
                self._write_header()
                return
            raise StorageError(f"{self.path}: not an Ode-repro data file")
        self._root = root

    def _rebuild_free_map(self) -> None:
        self._page_free.clear()
        for page_no in range(1, self._file.num_pages):
            page = self._pool.fetch(page_no)
            try:
                self._page_free[page_no] = page.free_space()
            finally:
                self._pool.unpin(page_no, dirty=False)

    def _redo(self, record: LogRecord) -> None:
        if record.kind is LogRecordKind.SET_ROOT:
            (self._root,) = _FWD.unpack(record.after)
        elif record.kind is LogRecordKind.INSERT:
            self._ensure_present(record.rid, record.after)
        elif record.kind is LogRecordKind.UPDATE:
            self._ensure_present(record.rid, record.after)
        elif record.kind is LogRecordKind.DELETE:
            self._ensure_absent(record.rid)

    def _undo(self, record: LogRecord) -> None:
        if record.kind is LogRecordKind.SET_ROOT:
            (self._root,) = _FWD.unpack(record.before)
        elif record.kind is LogRecordKind.INSERT:
            self._ensure_absent(record.rid)
        elif record.kind is LogRecordKind.UPDATE:
            self._ensure_present(record.rid, record.before)
        elif record.kind is LogRecordKind.DELETE:
            self._ensure_present(record.rid, record.before)

    def _ensure_present(self, rid: int, data: bytes) -> None:
        if self._exists_raw(rid):
            self._write_raw(rid, data)
        else:
            self._insert_at_raw(rid, data)

    def _ensure_absent(self, rid: int) -> None:
        if self._exists_raw(rid):
            self._delete_raw(rid)

    # -- media degrade ---------------------------------------------------------

    def _degrade(self) -> None:
        """The medium failed permanently: stop writing, keep reading."""
        if self.degraded:
            return
        self.degraded = True
        self._pool.read_only = True
        self._notify_degraded()

    def _check_writable(self) -> None:
        if self.degraded:
            raise ReadOnlyStorageError(
                f"{self.path}: degraded to read-only after a media error"
            )

    def _log(self, txid, kind, rid=-1, before=b"", after=b"") -> None:
        """Log one mutation of *txid*, preceded by its BEGIN if it is the
        first; degrades the engine on permanent media failure."""
        records = self._active[txid]
        try:
            if not records:
                self._wal.append(txid, LogRecordKind.BEGIN)
            records.append(self._wal.append(txid, kind, rid, before, after))
        except UnrecoverableMediaError as exc:
            self._degrade()
            raise ReadOnlyStorageError(
                f"{self.path}: log append failed permanently; "
                "database degraded to read-only"
            ) from exc

    # -- transaction control ------------------------------------------------------

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
            if records:
                if self.degraded:
                    raise ReadOnlyStorageError(
                        f"cannot commit transaction {txid}: "
                        "database degraded to read-only with logged mutations"
                    )
                self.injector.fire("txn.commit.begin", txid=txid)
                try:
                    self._wal.append(txid, LogRecordKind.COMMIT)
                except UnrecoverableMediaError as exc:
                    self._degrade()
                    raise ReadOnlyStorageError(
                        f"commit of transaction {txid} failed permanently; "
                        "database degraded to read-only"
                    ) from exc
        # A read-only commit appends and forces nothing: under strict 2PL
        # it could only read what committed writers made durable before
        # releasing their X locks.  A writer's durability fsync runs
        # OUTSIDE the engine mutex: with group commit, concurrent
        # committers elect a leader that fsyncs once for the batch;
        # without it, overlapping appends are still safe because WAL
        # durability is prefix-based (an fsync covering later records
        # covers this COMMIT too).  The txid stays in ``_active`` until
        # durable so an abort-after-failure can still undo it.
        if records:
            try:
                self._wal.force()
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
            if not self.degraded:
                try:
                    self._wal.append(
                        txid,
                        compensation.kind,
                        compensation.rid,
                        compensation.before,
                        compensation.after,
                    )
                except UnrecoverableMediaError:
                    # Keep undoing in memory; recovery replays the loser
                    # from the (fsynced prefix of the) log at next open.
                    self._degrade()
            self._redo(compensation)
        if records and not self.degraded:
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

    # -- data operations --------------------------------------------------------------

    def insert(self, txid: int, data: bytes) -> int:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        with self._mutex:
            rid = self._insert_raw(bytes(data))
        # A fresh rid is invisible to other transactions: the X lock is
        # granted immediately, it just records the holding for 2PL.
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            try:
                self._log(txid, LogRecordKind.INSERT, rid, b"", bytes(data))
            except ReadOnlyStorageError:
                self._delete_raw(rid)  # un-place the unlogged record (in memory)
                raise
            self.stats.inserts += 1
        return rid

    def read(self, txid: int, rid: int) -> bytes:
        self._check_open()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.S)
        with self._mutex:
            self.stats.reads += 1
            return self._read_raw(rid)

    def write(self, txid: int, rid: int, data: bytes) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            before = self._read_raw(rid)
            self._log(txid, LogRecordKind.UPDATE, rid, before, bytes(data))
            self._write_raw(rid, bytes(data))
            self.stats.writes += 1

    def write_merged(self, txid: int, rid: int, data: bytes) -> None:
        # Lock-free by contract: the MVCC version manager's commit mutex
        # is the only serialization (see StorageManager.write_merged).
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        with self._mutex:
            before = self._read_raw(rid)
            self._log(txid, LogRecordKind.UPDATE, rid, before, bytes(data))
            self._write_raw(rid, bytes(data))
            self.stats.writes += 1

    def peek(self, rid: int) -> bytes:
        self._check_open()
        with self._mutex:
            return self._read_raw(rid)

    def delete(self, txid: int, rid: int) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            before = self._read_raw(rid)
            self._log(txid, LogRecordKind.DELETE, rid, before, b"")
            self._delete_raw(rid)
            self.stats.deletes += 1

    def exists(self, txid: int, rid: int) -> bool:
        self._check_open()
        self._require_active(txid)
        with self._mutex:
            return self._exists_raw(rid)

    def scan(self, txid: int) -> Iterator[tuple[int, bytes]]:
        self._check_open()
        self._require_active(txid)
        for page_no in range(1, self._file.num_pages):
            with self._mutex:
                page = self._pool.fetch(page_no)
                try:
                    entries = [
                        (slot_no, data)
                        for slot_no, data in page.records()
                        if data and data[0] in (_FLAG_INLINE, _FLAG_FORWARD)
                    ]
                finally:
                    self._pool.unpin(page_no, dirty=False)
            for slot_no, data in entries:
                rid = pack_rid(page_no, slot_no)
                self._locks.lock(txid, rid, LockMode.S)
                if data[0] == _FLAG_INLINE:
                    yield rid, _inline_data(data)
                else:  # forwarded: fetch the body from the target
                    with self._mutex:
                        yield rid, self._read_raw(rid)

    # -- root pointer --------------------------------------------------------------------

    def get_root(self) -> int:
        self._check_open()
        return self._root

    def set_root(self, txid: int, rid: int) -> None:
        self._check_open()
        self._check_writable()
        self._require_active(txid)
        self._locks.lock(txid, _ROOT_RESOURCE, LockMode.X)
        with self._mutex:
            self._log(
                txid,
                LogRecordKind.SET_ROOT,
                -1,
                _FWD.pack(self._root),
                _FWD.pack(rid),
            )
            self._root = rid

    # -- lifecycle ------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush all pages + header and truncate the log."""
        self._check_open()
        if self.degraded:
            return  # nothing new can be made durable on a failed medium
        if self._active:
            raise StorageError("cannot checkpoint with active transactions")
        try:
            self.injector.fire("checkpoint.begin")
            with self._mutex:
                self._wal.force_now()
                self._pool.flush_all()
                self.injector.fire("checkpoint.after_flush")
                self._write_header()
                self._file.sync()
                self.injector.fire("checkpoint.before_truncate")
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
        if self._active:
            for txid in list(self._active):
                self.abort_transaction(txid)
        if not self.degraded:
            try:
                self.checkpoint()
            except ReadOnlyStorageError:
                pass  # fall through to the degraded shutdown below
        if self.degraded:
            # The app may have been told a commit *failed* while its
            # COMMIT record sits unforced in the log: dropping the
            # unforced tail keeps the refusal honest across restarts.
            self._wal.crash()
        else:
            self._wal.close()
        self._file.close()
        self._closed = True

    def simulate_crash(self) -> None:
        """Die abruptly: volatile state is lost, only fsynced state survives.

        Dirty buffer-pool pages vanish with the process and the *unforced*
        WAL tail is dropped (a real crash loses whatever the OS page cache
        held) — so a missing ``force()`` in the engine shows up as lost
        commits in tests instead of being papered over.
        """
        if self._closed:
            return
        self._wal.crash()
        self._file.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage manager is closed")

    @property
    def lock_manager(self) -> LockManager:
        return self._locks

    # -- physical record layer (flag + forwarding) -------------------------------------------

    def _fetch(self, page_no: int) -> SlottedPage:
        return self._pool.fetch(page_no)

    def _unpin(self, page_no: int, page: SlottedPage, *, dirty: bool) -> None:
        self._pool.unpin(page_no, dirty=dirty)
        self._page_free[page_no] = page.free_space()

    def _find_page_for(self, payload_len: int) -> int:
        need = payload_len + 4  # slot entry
        for page_no, free in self._page_free.items():
            if free >= need:
                return page_no
        page_no = self._file.allocate_page()
        self._page_free[page_no] = PAGE_SIZE
        return page_no

    def _place(self, payload: bytes) -> int:
        """Store one flagged payload (≤ a page) somewhere; returns its rid."""
        if len(payload) > _MAX_CHUNK + _FWD.size + 1:
            raise StorageError(
                f"internal: payload of {len(payload)} bytes must be chained"
            )
        while True:
            page_no = self._find_page_for(len(payload))
            page = self._fetch(page_no)
            try:
                slot_no = page.insert(payload)
            except PageFullError:
                self._unpin(page_no, page, dirty=False)
                # free-map estimate was stale; mark exhausted and retry
                self._page_free[page_no] = 0
                continue
            self._unpin(page_no, page, dirty=True)
            return pack_rid(page_no, slot_no)

    # -- body chains: records of any size span segment records ------------------

    def _place_body(self, data: bytes) -> int:
        """Store *data* as a (possibly chained) body; returns the head rid."""
        chunks = [data[i : i + _MAX_CHUNK] for i in range(0, len(data), _MAX_CHUNK)]
        if not chunks:
            chunks = [b""]
        next_rid: int | None = None
        # Build the chain back to front so each segment knows its successor.
        for chunk in reversed(chunks):
            if next_rid is None:
                payload = bytes([_FLAG_MOVED]) + chunk
            else:
                payload = bytes([_FLAG_SEGMENT]) + _FWD.pack(next_rid) + chunk
            next_rid = self._place(payload)
        return next_rid

    def _read_body(self, rid: int) -> bytes:
        parts = []
        while True:
            payload = self._load(rid)
            if payload[0] == _FLAG_MOVED:
                parts.append(payload[1:])
                return b"".join(parts)
            if payload[0] == _FLAG_SEGMENT:
                (rid,) = _FWD.unpack(payload[1:9])
                parts.append(payload[9:])
                continue
            raise RecordNotFoundError(f"rid {rid}: broken body chain")

    def _delete_body(self, rid: int) -> None:
        while True:
            payload = self._load(rid)
            self._delete_slot(rid)
            if payload[0] == _FLAG_SEGMENT:
                (rid,) = _FWD.unpack(payload[1:9])
                continue
            return

    # -- logical record operations ------------------------------------------------

    def _insert_raw(self, data: bytes) -> int:
        if len(data) <= _MAX_CHUNK:
            return self._place(_inline_payload(data))
        body = self._place_body(data)
        return self._place(bytes([_FLAG_FORWARD]) + _FWD.pack(body))

    def _insert_at_raw(self, rid: int, data: bytes) -> None:
        page_no, slot_no = unpack_rid(rid)
        while self._file.num_pages <= page_no:
            new_page = self._file.allocate_page()
            self._page_free[new_page] = PAGE_SIZE
        if len(data) <= _MAX_CHUNK:
            page = self._fetch(page_no)
            try:
                page.insert_at(slot_no, _inline_payload(data))
                self._unpin(page_no, page, dirty=True)
                return
            except PageFullError:
                self._unpin(page_no, page, dirty=False)
        body = self._place_body(data)
        page = self._fetch(page_no)
        page.insert_at(slot_no, bytes([_FLAG_FORWARD]) + _FWD.pack(body))
        self._unpin(page_no, page, dirty=True)

    def _load(self, rid: int) -> bytes:
        page_no, slot_no = unpack_rid(rid)
        if not 1 <= page_no < self._file.num_pages:
            raise RecordNotFoundError(f"rid {rid}: no such page")
        page = self._fetch(page_no)
        try:
            if not page.is_live(slot_no):
                raise RecordNotFoundError(f"rid {rid}: slot is empty")
            return page.read(slot_no)
        finally:
            self._pool.unpin(page_no, dirty=False)

    def _read_raw(self, rid: int) -> bytes:
        payload = self._load(rid)
        if payload[0] == _FLAG_INLINE:
            return _inline_data(payload)
        if payload[0] == _FLAG_FORWARD:
            (body,) = _FWD.unpack(payload[1:9])
            return self._read_body(body)
        raise RecordNotFoundError(f"rid {rid} addresses a record body, not a record")

    def _write_raw(self, rid: int, data: bytes) -> None:
        page_no, slot_no = unpack_rid(rid)
        payload = self._load(rid)
        if payload[0] == _FLAG_FORWARD:
            (body,) = _FWD.unpack(payload[1:9])
            head = self._load(body)
            if head[0] == _FLAG_MOVED and len(data) <= _MAX_CHUNK:
                # Single-segment body: try an in-place target update.
                tpage_no, tslot_no = unpack_rid(body)
                tpage = self._fetch(tpage_no)
                try:
                    tpage.update(tslot_no, bytes([_FLAG_MOVED]) + data)
                    self._unpin(tpage_no, tpage, dirty=True)
                    return
                except PageFullError:
                    self._unpin(tpage_no, tpage, dirty=False)
            self._delete_body(body)
            new_body = self._place_body(data)
            page = self._fetch(page_no)
            page.update(slot_no, bytes([_FLAG_FORWARD]) + _FWD.pack(new_body))
            self._unpin(page_no, page, dirty=True)
            return
        # Inline record: keep it inline if it fits, else grow a body chain.
        if len(data) <= _MAX_CHUNK:
            page = self._fetch(page_no)
            try:
                page.update(slot_no, _inline_payload(data))
                self._unpin(page_no, page, dirty=True)
                return
            except PageFullError:
                self._unpin(page_no, page, dirty=False)
        body = self._place_body(data)
        page = self._fetch(page_no)
        # Inline slots are always >= 9 bytes, so this update is in place
        # and cannot fail even on a full page.
        page.update(slot_no, bytes([_FLAG_FORWARD]) + _FWD.pack(body))
        self._unpin(page_no, page, dirty=True)

    def _delete_slot(self, rid: int) -> None:
        page_no, slot_no = unpack_rid(rid)
        page = self._fetch(page_no)
        page.delete(slot_no)
        self._unpin(page_no, page, dirty=True)

    def _delete_raw(self, rid: int) -> None:
        payload = self._load(rid)
        if payload[0] == _FLAG_FORWARD:
            (body,) = _FWD.unpack(payload[1:9])
            self._delete_body(body)
        self._delete_slot(rid)

    def _exists_raw(self, rid: int) -> bool:
        page_no, slot_no = unpack_rid(rid)
        if not 1 <= page_no < self._file.num_pages:
            return False
        page = self._fetch(page_no)
        try:
            if not page.is_live(slot_no):
                return False
            return page.read(slot_no)[0] in (_FLAG_INLINE, _FLAG_FORWARD)
        finally:
            self._pool.unpin(page_no, dirty=False)
