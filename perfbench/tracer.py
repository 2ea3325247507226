"""Span tracing for the traced run, from the benchmark's own files.

:class:`Tracer` replaces public functions of the layers with timing
wrappers at class (or module) level and restores the originals on
:meth:`Tracer.uninstall`.  Each call records a span — name, start, end,
span id, parent span id, root span id — in per-thread columns kept in
memory; :meth:`Tracer.write` dumps them when the run ends.  A span's self
time is its duration minus the durations of its child spans (calls are
synchronous, so children never overlap).

It never calls ``repro.obs.enable()``: ``obs.ENABLED`` switches off the
compiled posting tier and the posting caches, so a trace taken that way
would observe a different program.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from array import array
from time import perf_counter_ns

from repro.core import manager as core_manager
from repro.core import posting
from repro.core.manager import TriggerSystem
from repro.core.trigger_index import TriggerIndex
from repro.core.versioned import TriggerVersionManager
from repro.objects.cluster import Cluster
from repro.objects.database import Database
from repro.sessions.session import Session
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskStorageManager
from repro.storage.locks import LockManager
from repro.storage.mainmem import MainMemoryStorageManager
from repro.storage.wal import WriteAheadLog
from repro.transactions.manager import TransactionManager

import workloads

#: (owner, attribute, span name) of every wrapped function.  Roots — the
#: client's transaction — are ``sessions.run`` and ``sessions.serial``, or
#: for an overlapped workload its two halves, ``sessions.open`` and
#: ``sessions.commit``.
TARGETS = [
    (Session, "run", "sessions.run"),
    (workloads, "serial_run", "sessions.serial"),
    (workloads, "open_run", "sessions.open"),
    (workloads, "commit_run", "sessions.commit"),
    (Database, "deref", "objects.deref"),
    (Database, "pnew", "objects.pnew"),
    (Database, "flush_transaction", "objects.flush"),
    (Database, "catalog_get", "objects.catalog_get"),
    (Cluster, "add", "objects.cluster_add"),
    (TriggerSystem, "post_event", "core.post"),
    (TriggerSystem, "post_user_event", "core.post"),
    (TriggerSystem, "post_many", "core.post"),
    (TriggerIndex, "lookup", "core.index_lookup"),
    # run_action is called by name from both modules.
    (posting, "run_action", "core.action"),
    (core_manager, "run_action", "core.action"),
    (TriggerVersionManager, "commit_merge", "core.mvcc.merge"),
    (TransactionManager, "commit", "transactions.commit"),
    (TransactionManager, "abort", "transactions.abort"),
    *[
        (engine, method, f"storage.{label}")
        for engine in (DiskStorageManager, MainMemoryStorageManager)
        for method, label in (("read", "read"), ("write", "write"),
                              ("insert", "insert"), ("commit_transaction", "commit"))
    ],
    (BufferPool, "fetch", "storage.buffer.fetch"),
    (LockManager, "lock", "storage.locks.lock"),
    (WriteAheadLog, "append", "storage.wal.append"),
    (WriteAheadLog, "force", "storage.wal.force"),
]

COLUMNS = ("name", "start_ns", "end_ns", "span", "parent", "root", "self_ns", "phase")


class _Buffer:
    """One thread's spans, column by column, plus its open-span stack."""

    def __init__(self) -> None:
        self.cols = tuple(array("q") for _ in COLUMNS)
        #: open spans: [span id, root id, child ns]
        self.stack: list[list[int]] = []


class Tracer:
    """Installs the wrappers of :data:`TARGETS` and keeps their spans."""

    PHASES = ("setup", "measure")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        #: index into :attr:`PHASES`, recorded with each span
        self.phase = 0

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            if name not in self.names:
                self.names.append(name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, self.names.index(name)))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_id: int):
        ids, buffer = self._ids, self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            span = next(ids)
            parent = stack[-1] if stack else None
            frame = [span, parent[1] if parent else span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                cols = buf.cols
                cols[0].append(name_id)
                cols[1].append(start)
                cols[2].append(end)
                cols[3].append(span)
                cols[4].append(parent[0] if parent else 0)
                cols[5].append(frame[1])
                cols[6].append(duration - frame[2])
                cols[7].append(self.phase)

        return traced

    def spans(self):
        """Every recorded span as a tuple in :data:`COLUMNS` order."""
        for buf in self._buffers:
            yield from zip(*buf.cols)

    def summary(self, phase: str) -> dict:
        """Per-name call counts, inclusive and self time, plus root figures.

        ``root_ns``/``root_self_ns`` are the total and self time of the
        spans with no parent (client transactions, or their halves), so
        ``root_ns - root_self_ns`` is the time their direct children —
        the top-level layer spans — cover.
        """
        want = self.PHASES.index(phase)
        by_name = {name: [0, 0, 0] for name in self.names}
        root_ns = root_self_ns = 0
        for name_id, start, end, _, parent, _, self_ns, ph in self.spans():
            if ph != want:
                continue
            entry = by_name[self.names[name_id]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_ns
            if parent == 0:
                root_ns += end - start
                root_self_ns += self_ns
        return {
            "layers": {n: {"calls": c, "ns": t, "self_ns": s}
                       for n, (c, t, s) in by_name.items()},
            "root_ns": root_ns,
            "root_self_ns": root_self_ns,
        }

    def write(self, path) -> int:
        """Write the spans as one JSON header line plus raw int64 columns."""
        count = sum(len(buf.cols[0]) for buf in self._buffers)
        with open(path, "wb") as fh:
            header = {"columns": COLUMNS, "names": self.names,
                      "phases": self.PHASES, "spans": count, "dtype": "int64"}
            fh.write(json.dumps(header).encode() + b"\n")
            for col in range(len(COLUMNS)):
                for buf in self._buffers:
                    buf.cols[col].tofile(fh)
        return count
