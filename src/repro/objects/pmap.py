"""A small persistent hash map, used for clusters and the trigger index.

Keys are strings, values anything :mod:`repro.objects.serialize` encodes.
Entries are spread over a fixed number of bucket records so that updates
touch (and lock) only one bucket, not the whole map — the trigger index is
updated on every activation/deactivation and every FSM advance would
otherwise serialize on a single hot record.

Layout: the catalog stores ``pmap:<name>`` -> header rid; the header record
holds the list of bucket rids (-1 = bucket not yet allocated); each bucket
record holds a dict.

Reads skip what cannot have changed.  Each map keeps its header as last
*committed*: an allocated bucket's rid never changes once committed, so a
key whose bucket is allocated there goes straight to the bucket, without
the catalog or header read.  An unallocated slot falls back to the locked
header read, which serializes with a concurrent allocation through the
header's X lock; the allocating transaction drops the cached header and
never refills it, because its own header is uncommitted.  Decoded buckets
are cached per transaction: the bucket's S lock is held to commit (strict
2PL), so only the transaction's own writes can change them.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.objects.serialize import decode_value, encode_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction


def _encode(value: Any) -> bytes:
    out = bytearray()
    encode_value(value, out)
    return bytes(out)


def _decode(raw: bytes) -> Any:
    value, _ = decode_value(raw, 0)
    return value


#: Per-transaction attachment: bucket rid -> decoded bucket, for every
#: bucket the transaction read or wrote.  Never mutated in place.
BUCKET_CACHE = "pmap:buckets"

#: Per-transaction attachment: names of the maps the transaction allocated
#: a header or bucket in (their headers are uncommitted for it).
ALLOCATED = "pmap:allocated"


class PersistentMap:
    """A bucketed, transactional string-keyed map inside a database."""

    def __init__(self, db: "Database", name: str, bucket_count: int = 16):
        self.db = db
        self.name = name
        self.bucket_count = bucket_count
        self._catalog_key = f"pmap:{name}"
        #: The header's bucket rids as last committed, or None.
        self._committed: tuple[int, ...] | None = None

    # -- header management ---------------------------------------------------

    def _allocating(self, txn: "Transaction") -> None:
        txn.attachment(ALLOCATED, set).add(self.name)
        self._committed = None

    def _header_rid(self, txn: "Transaction", *, create: bool) -> int | None:
        rid = self.db.catalog_get(self._catalog_key)
        if rid is None and create:
            self._allocating(txn)
            buckets = [-1] * self.bucket_count
            rid = self.db.storage.insert(txn.txid, _encode(buckets))
            self.db.catalog_set(txn, self._catalog_key, rid)
        return rid

    def _load_header(self, txn: "Transaction", *, create: bool) -> tuple[int, list[int]] | None:
        """The locked header read; refreshes the committed-header cache
        unless this transaction allocated in the map."""
        rid = self._header_rid(txn, create=create)
        if rid is None:
            return None
        buckets = list(_decode(self.db.storage.read(txn.txid, rid)))
        if self.name not in txn.attachments.get(ALLOCATED, ()):
            self._committed = tuple(buckets)
        return rid, buckets

    def _bucket_for(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self.bucket_count

    def _committed_rid(self, index: int) -> int:
        """Bucket *index*'s rid from the committed-header cache (-1 if the
        cache is empty or the bucket unallocated there)."""
        committed = self._committed
        return -1 if committed is None else committed[index]

    def _bucket_rid(self, txn: "Transaction", key: str) -> int:
        """The rid of *key*'s bucket, or -1 if the map or bucket is absent."""
        index = self._bucket_for(key)
        rid = self._committed_rid(index)
        if rid >= 0:
            return rid
        header = self._load_header(txn, create=False)
        return -1 if header is None else header[1][index]

    def _load_bucket(self, txn: "Transaction", bucket_rid: int) -> dict[str, Any]:
        """The decoded bucket (shared with the transaction's cache: copy
        before changing it)."""
        cache = txn.attachment(BUCKET_CACHE, dict)
        bucket = cache.get(bucket_rid)
        if bucket is None:
            raw = self.db.storage.read(txn.txid, bucket_rid)
            bucket = cache[bucket_rid] = dict(_decode(raw))
        return bucket

    def _store_bucket(self, txn: "Transaction", bucket_rid: int, bucket: dict) -> None:
        self.db.storage.write(txn.txid, bucket_rid, _encode(bucket))
        txn.attachment(BUCKET_CACHE, dict)[bucket_rid] = bucket

    # -- operations --------------------------------------------------------------

    def get(self, txn: "Transaction", key: str, default: Any = None) -> Any:
        bucket_rid = self._bucket_rid(txn, key)
        if bucket_rid < 0:
            return default
        return self._load_bucket(txn, bucket_rid).get(key, default)

    def put(self, txn: "Transaction", key: str, value: Any) -> None:
        index = self._bucket_for(key)
        bucket_rid = self._committed_rid(index)
        if bucket_rid < 0:
            header_rid, buckets = self._load_header(txn, create=True)
            bucket_rid = buckets[index]
        if bucket_rid < 0:
            self._allocating(txn)
            bucket = {key: value}
            bucket_rid = self.db.storage.insert(txn.txid, _encode(bucket))
            buckets[index] = bucket_rid
            self.db.storage.write(txn.txid, header_rid, _encode(buckets))
            txn.attachment(BUCKET_CACHE, dict)[bucket_rid] = bucket
            return
        bucket = dict(self._load_bucket(txn, bucket_rid))
        bucket[key] = value
        self._store_bucket(txn, bucket_rid, bucket)

    def remove(self, txn: "Transaction", key: str) -> bool:
        """Delete *key*; returns whether it was present."""
        bucket_rid = self._bucket_rid(txn, key)
        if bucket_rid < 0:
            return False
        bucket = self._load_bucket(txn, bucket_rid)
        if key not in bucket:
            return False
        bucket = dict(bucket)
        del bucket[key]
        self._store_bucket(txn, bucket_rid, bucket)
        return True

    def items(self, txn: "Transaction") -> Iterator[tuple[str, Any]]:
        header = self._load_header(txn, create=False)
        if header is None:
            return
        _, buckets = header
        for bucket_rid in buckets:
            if bucket_rid < 0:
                continue
            yield from self._load_bucket(txn, bucket_rid).items()

    def keys(self, txn: "Transaction") -> list[str]:
        return [key for key, _ in self.items(txn)]

    def __len__(self) -> int:  # pragma: no cover - needs a txn; use count()
        raise TypeError("use PersistentMap.count(txn)")

    def count(self, txn: "Transaction") -> int:
        return sum(1 for _ in self.items(txn))
