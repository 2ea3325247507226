#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 10 --trace 0

Builds the program from ``src/`` of the checkout it sits in (pure Python:
the build is putting ``src`` on the import path), sets the workload up,
crashes a second database set up afresh after a fixed batch of
transactions, runs the closed loop for ``--seconds`` in chunks with more
set-ups and timed reopens of the crashed database between them, checks the
outputs, checks the recovered database and runs ``repro.fsck``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up once
with tracing on, runs the measured phase once untraced and once traced,
and reports the per-layer metrics; spans go to ``perfbench/out/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output,
durability and fsck check passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The measured phase runs as WINDOWS chunks of equal length, and
#: txn_per_s and the p50 latencies are medians over the chunks.  Before
#: each chunk the untraced run takes its share of the set-up and recovery
#: samples, so that every timed metric samples the whole run: a shared
#: host's CPU speed swings by about 20% over a few seconds and drifts
#: further over tens of seconds.
WINDOWS = 10
#: Set-up samples: more before each chunk until they add up to its share
#: of SETUP_BUDGET_S seconds (or of MAX_SETUPS set-ups); setup_s is the
#: median of these and the measured database's own set-up.
SETUP_BUDGET_S = 8.0
MAX_SETUPS = 50
#: Recovery samples: at least one reopen before each chunk, more until
#: they add up to its share of RECOVERY_BUDGET_S seconds; recovery_s is
#: the median of these and the final reopen the checks read.
RECOVERY_BUDGET_S = 8.0
#: Untimed transactions per client between set-up and the measured phase.
WARMUP = 100
#: A class reports a p99 only with this many samples, so that at least
#: 10 lie beyond it.
P99_MIN_SAMPLES = 1000
#: Transactions per client run on a freshly set-up database before the
#: crash, so recovery_s always replays a log of the same size.
DURABILITY_TXNS = 1000

FLUSH_POLICY = "per-commit fsync (group_commit off, the default)"

#: Scaling properties the workload sizes are chosen around.
SCALING_NOTES = [
    "PersistentMap's fixed 16 cluster buckets make pnew O(extent): about "
    "0.2 ms -> 1.4 ms per object by 8k objects, and populating 20k objects "
    "takes 117-165 s; ledger's population stays well below that "
    "(objects.pnew.us_per_call, objects.cluster_add.us_per_call, setup_s).",
    "The trigger index's fixed 32 buckets make monitor's p50 grow from about "
    "0.7 ms at 200 cards to about 1.0 ms at 1,000 cards with no buffer misses "
    "(core.index_lookup.us_per_call, post_txn_p50_ms).",
]

#: End-to-end metrics every workload reports in its last line: (name, unit).
END_TO_END = [
    ("txn_per_s", "txn/s"),
    ("txn_p50_ms", "ms"),
    ("post_txn_p50_ms", "ms"),
    ("wal_bytes_per_txn", "B/txn"),
    ("store_bytes_per_object", "B/object"),
    ("recovery_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

#: Printed, not in the last line.  The p99s follow the host's fsync tail
#: and moved 2-3x between runs of the same code on a shared disk, too far
#: for a regression bound; the per-type latencies exist only on the
#: workloads that have the transaction type; error_rate is 0 on a healthy
#: run and the last line carries it as failed / attempted.
PRINTED_ONLY = [
    ("txn_p99_ms", "ms"),
    ("post_txn_p99_ms", "ms"),
    ("read_txn_p50_ms", "ms"),
    ("read_txn_p99_ms", "ms"),
    ("update_txn_p50_ms", "ms"),
    ("insert_txn_p50_ms", "ms"),
    ("error_rate", "fraction"),
]

#: Per-layer metrics from the traced run: (name, unit).
PER_LAYER = [
    ("sessions.retries_per_txn", "count/txn"),
    ("objects.deref.us_per_txn", "us/txn"),
    ("objects.catalog_get.calls_per_txn", "calls/txn"),
    ("objects.pnew.us_per_call", "us/call"),
    ("objects.cluster_add.us_per_call", "us/call"),
    ("objects.flush.us_per_txn", "us/txn"),
    ("core.post.calls_per_txn", "calls/txn"),
    ("core.post.self_us_per_txn", "us/txn"),
    ("core.index_lookup.calls_per_txn", "calls/txn"),
    ("core.index_lookup.us_per_call", "us/call"),
    ("core.index_lookup.share_of_post", "fraction"),
    ("core.skip_ratio", "fraction"),
    ("core.fsm_advances_per_post", "count/post"),
    ("core.state_writes_per_post", "count/post"),
    ("core.firings_per_txn", "count/txn"),
    ("core.compiled_hit_ratio", "fraction"),
    ("core.action.us_per_firing", "us/firing"),
    ("core.mvcc.merge_us_per_txn", "us/txn"),
    ("core.mvcc.replay_ratio", "fraction"),
    ("core.mvcc.conflict_ratio", "fraction"),
    ("transactions.commit.self_us_per_txn", "us/txn"),
    ("transactions.aborts_per_txn", "count/txn"),
    ("storage.read.calls_per_txn", "calls/txn"),
    ("storage.read.us_per_call", "us/call"),
    ("storage.write.calls_per_txn", "calls/txn"),
    ("storage.write.us_per_call", "us/call"),
    ("storage.insert.us_per_call", "us/call"),
    ("storage.commit.us_per_txn", "us/txn"),
    ("storage.buffer.hit_ratio", "fraction"),
    ("storage.buffer.evictions_per_txn", "count/txn"),
    ("storage.locks.calls_per_txn", "calls/txn"),
    ("storage.locks.us_per_txn", "us/txn"),
    ("storage.locks.waits_per_txn", "count/txn"),
    ("storage.locks.deadlocks_per_txn", "count/txn"),
    ("storage.wal.appends_per_txn", "calls/txn"),
    ("storage.wal.append_us_per_call", "us/call"),
    ("storage.wal.forces_per_txn", "count/txn"),
    ("storage.wal.force_us_per_call", "us/call"),
    ("storage.wal.piggyback_ratio", "fraction"),
    ("client.us_per_txn", "us/txn"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
]


# -- helpers ------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 where the layer did no work."""
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of *values* (q in [0, 1])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def db_files(prefix: Path) -> list[Path]:
    return sorted(prefix.parent.glob(prefix.name + ".*"))


def stats_snapshot(db) -> dict[str, int]:
    """The counters of every layer's stats object, flattened."""
    sources = {
        "storage": db.storage.stats,
        "locks": db.storage.lock_manager.stats,
        "posting": db.trigger_system.stats,
        "sessions": db.session_stats,
    }
    if db.trigger_system.versions is not None:
        sources["mvcc"] = db.trigger_system.versions.stats
    return {
        f"{prefix}.{key}": value
        for prefix, source in sources.items()
        for key, value in source.snapshot().items()
    }


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- phases -------------------------------------------------------------------


def set_up(workload, prefix: Path):
    """Open, populate and activate triggers, then restart on the loaded
    database, as an application would after a bulk load: a crash later
    replays the transactions' log, not the loader's."""
    db = workload.open(str(prefix))
    workload.populate(db)
    db.close()
    return workload.open(str(prefix))


def start_clients(workload, db, seed: int):
    from workloads import Client

    if workload.clients == 1:
        return [Client(0, seed)]
    return [Client(i, seed, db.session(f"client-{i}"))
            for i in range(workload.clients)]


def run_clients(workload, db, clients, *, seconds=None, count=None, record=True):
    """Closed loop: each client starts its next transaction when the last
    one returns.  Runs for *seconds*, or *count* transactions per client;
    returns (wall seconds, clients still running)."""
    deadline = time.perf_counter() + (seconds or 0.0)
    kind_ids = {kind: i for i, kind in enumerate(workload.KINDS)}

    def more(done):
        return (done < count) if count is not None else (time.perf_counter() < deadline)

    def failed(client, exc):
        client.errors.append(f"{type(exc).__name__}: {exc}")
        if record:
            client.attempted += 1
            client.failed += 1

    def finish(client, start, call):
        """Run *call*, which ends a transaction begun at *start*; record it."""
        try:
            kind, committed = call()
        except Exception as exc:  # a failed transaction, counted
            failed(client, exc)
            return
        end = time.perf_counter_ns()
        if record:
            client.attempted += 1
            client.committed += committed
            client.samples.extend((kind_ids[kind], end, end - start, committed))

    def loop(client):
        done = 0
        while more(done):
            done += 1
            finish(client, time.perf_counter_ns(),
                   lambda: workload.transaction(db, client))

    def overlap():
        # Round robin: a client commits its open transaction, then begins
        # the next one and leaves it open while the other clients take
        # their turns.
        done = [0] * len(clients)
        open_txns = {}
        while True:
            for client in clients:
                if client.index in open_txns:
                    finish(client, *open_txns.pop(client.index))
                if more(done[client.index]):
                    done[client.index] += 1
                    start = time.perf_counter_ns()
                    try:
                        open_txns[client.index] = (start, workload.start(db, client))
                    except Exception as exc:  # a failed transaction, counted
                        failed(client, exc)
            if not open_txns:
                return

    began = time.perf_counter()
    if workload.overlapped:
        overlap()
        return time.perf_counter() - began, 0
    if len(clients) == 1:
        loop(clients[0])
        return time.perf_counter() - began, 0
    threads = [threading.Thread(target=loop, args=(c,), daemon=True) for c in clients]
    for thread in threads:
        thread.start()
    limit = (seconds or 0.0) + 120.0
    for thread in threads:
        thread.join(timeout=max(limit - (time.perf_counter() - began), 1.0))
    elapsed = time.perf_counter() - began
    return elapsed, sum(thread.is_alive() for thread in threads)


def phase_metrics(workload, clients, chunks: list[tuple[int, int]]):
    """Throughput and latency percentiles by transaction class.

    *chunks* holds the (start, end) ns of each chunk of the measured
    phase; ``txn_per_s`` and each p50 are medians of the per-chunk values,
    each p99 is over the whole phase.  Returns the metrics and, per class,
    the sample count.
    """
    starts = [start for start, _ in chunks]
    commits = [0] * len(chunks)
    classes: dict[str, list[list[float]]] = {}
    kinds = [("txn",) + kind_classes for kind_classes in workload.KINDS.values()]
    for client in clients:
        samples = client.samples
        for i in range(0, len(samples), 4):
            kind, end, ns, committed = samples[i:i + 4]
            window = bisect.bisect_right(starts, end) - 1
            commits[window] += committed
            for cls in kinds[kind]:
                classes.setdefault(cls, [[] for _ in chunks])[window].append(ns / 1e6)
    metrics = {"txn_per_s": statistics.median(
        n / ((end - start) / 1e9) for n, (start, end) in zip(commits, chunks))}
    counts = {"commits_per_window": commits}
    for cls, windows in classes.items():
        prefix = "txn" if cls == "txn" else f"{cls}_txn"
        values = [v for w in windows for v in w]
        metrics[f"{prefix}_p50_ms"] = statistics.median(
            percentile(w, 0.50) for w in windows if w)
        if len(values) >= P99_MIN_SAMPLES:
            metrics[f"{prefix}_p99_ms"] = percentile(values, 0.99)
        counts[prefix] = len(values)
    return metrics, counts


def layer_metrics(summary, setup_summary, d, txns, traced_tps, untraced_tps):
    """The per-layer metrics from span summaries and counter deltas *d*."""
    layers = summary["layers"]
    setup_layers = setup_summary["layers"]

    def calls(name):
        return layers[name]["calls"]

    def us(name, kind="ns"):
        return layers[name][kind] / 1e3

    def us_per_call_all(name):
        # pnew/cluster add/insert: set-up and measured calls together.
        total = layers[name]["ns"] + setup_layers[name]["ns"]
        return ratio(total / 1e3, layers[name]["calls"] + setup_layers[name]["calls"])

    posts = d["posting.events_posted"]
    page_refs = d["storage.page_hits"] + d["storage.page_misses"]
    compiled = d["posting.compiled_hits"] + d["posting.compiled_fallbacks"]
    merges = d.get("mvcc.merges", 0)
    root_ns = summary["root_ns"]
    return {
        "sessions.retries_per_txn": ratio(
            d["sessions.deadlock_retries"] + d["sessions.conflict_retries"], txns),
        "objects.deref.us_per_txn": ratio(us("objects.deref", "self_ns"), txns),
        "objects.catalog_get.calls_per_txn": ratio(calls("objects.catalog_get"), txns),
        "objects.pnew.us_per_call": us_per_call_all("objects.pnew"),
        "objects.cluster_add.us_per_call": us_per_call_all("objects.cluster_add"),
        "objects.flush.us_per_txn": ratio(us("objects.flush"), txns),
        "core.post.calls_per_txn": ratio(calls("core.post"), txns),
        "core.post.self_us_per_txn": ratio(us("core.post", "self_ns"), txns),
        "core.index_lookup.calls_per_txn": ratio(calls("core.index_lookup"), txns),
        "core.index_lookup.us_per_call": ratio(us("core.index_lookup"),
                                               calls("core.index_lookup")),
        "core.index_lookup.share_of_post": ratio(us("core.index_lookup"),
                                                 us("core.post")),
        "core.skip_ratio": ratio(d["posting.skipped_no_triggers"], posts),
        "core.fsm_advances_per_post": ratio(d["posting.fsm_advances"], posts),
        "core.state_writes_per_post": ratio(d["posting.state_writes"], posts),
        "core.firings_per_txn": ratio(d["posting.firings"], txns),
        "core.compiled_hit_ratio": ratio(d["posting.compiled_hits"], compiled),
        "core.action.us_per_firing": ratio(us("core.action"), calls("core.action")),
        "core.mvcc.merge_us_per_txn": ratio(us("core.mvcc.merge"), txns),
        "core.mvcc.replay_ratio": ratio(d.get("mvcc.replays", 0), merges),
        "core.mvcc.conflict_ratio": ratio(d.get("mvcc.conflicts", 0), merges),
        "transactions.commit.self_us_per_txn": ratio(
            us("transactions.commit", "self_ns"), txns),
        "transactions.aborts_per_txn": ratio(d["storage.aborts"], txns),
        "storage.read.calls_per_txn": ratio(calls("storage.read"), txns),
        "storage.read.us_per_call": ratio(us("storage.read"), calls("storage.read")),
        "storage.write.calls_per_txn": ratio(calls("storage.write"), txns),
        "storage.write.us_per_call": ratio(us("storage.write"), calls("storage.write")),
        "storage.insert.us_per_call": us_per_call_all("storage.insert"),
        "storage.commit.us_per_txn": ratio(us("storage.commit"), txns),
        "storage.buffer.hit_ratio": ratio(d["storage.page_hits"], page_refs),
        "storage.buffer.evictions_per_txn": ratio(d["storage.page_evictions"], txns),
        "storage.locks.calls_per_txn": ratio(calls("storage.locks.lock"), txns),
        "storage.locks.us_per_txn": ratio(us("storage.locks.lock"), txns),
        "storage.locks.waits_per_txn": ratio(d["locks.waits"], txns),
        "storage.locks.deadlocks_per_txn": ratio(d["locks.deadlocks"], txns),
        "storage.wal.appends_per_txn": ratio(calls("storage.wal.append"), txns),
        "storage.wal.append_us_per_call": ratio(us("storage.wal.append"),
                                                calls("storage.wal.append")),
        "storage.wal.forces_per_txn": ratio(d["storage.log_forces"], txns),
        "storage.wal.force_us_per_call": ratio(us("storage.wal.force"),
                                               calls("storage.wal.force")),
        "storage.wal.piggyback_ratio": ratio(d["storage.group_piggybacks"],
                                             d["storage.commits"]),
        "client.us_per_txn": ratio(summary["root_self_ns"] / 1e3, txns),
        "trace.coverage": ratio(root_ns - summary["root_self_ns"], root_ns),
        "trace.overhead": 1.0 - ratio(traced_tps, untraced_tps),
    }


def crash(cls, seed: int, prefix: Path):
    """Set up a second database afresh, so that the crash, the recovery
    and the store size follow the same work however many transactions the
    measured phase gets through; run a fixed batch, leave one
    unacknowledged transaction in flight behind one acknowledged one, and
    crash.  Returns the workload that knows what was acknowledged, and the
    problems found."""
    workload = cls(seed)
    db = set_up(workload, prefix)
    clients = start_clients(workload, db, seed)
    problems = []
    _, hung = run_clients(workload, db, clients, count=DURABILITY_TXNS, record=False)
    if hung:
        problems.append(f"{hung} client(s) hung before the crash")
    problems.extend(f"client {client.index}: {err}"
                    for client in clients for err in client.errors[:3])
    workload.leave_in_flight(db, clients)
    db.simulate_crash()
    return workload, problems


def time_set_up(cls, seed: int, prefix: Path) -> float:
    """Seconds one more set-up takes; its database is then deleted."""
    workload = cls(seed)
    gc.collect()
    began = time.perf_counter()
    db = set_up(workload, prefix)
    elapsed = time.perf_counter() - began
    db.close()
    for path in db_files(prefix):
        path.unlink()
    return elapsed


def time_reopen(workload, prefix: Path) -> float:
    """Seconds a reopen of a fresh copy of the crashed files takes."""
    copy = prefix.with_name(prefix.name + "r")
    for path in db_files(prefix):
        shutil.copyfile(path, copy.with_name(copy.name + path.suffix))
    gc.collect()
    began = time.perf_counter()
    db = workload.open(str(copy))
    elapsed = time.perf_counter() - began
    db.close()
    for path in db_files(copy):
        path.unlink()
    return elapsed


def check_recovery(workload, prefix: Path, recovery_times: list[float]):
    """Reopen the crashed files themselves (timed too), check the
    acknowledged state exactly, close cleanly, and run fsck.  Returns the
    problems found and ``recovery_s`` and ``store_bytes_per_object``."""
    from repro.fsck import fsck

    gc.collect()
    began = time.perf_counter()
    db = workload.open(str(prefix))
    recovery_times.append(time.perf_counter() - began)
    problems = workload.check_recovered(db)
    db.close()
    store_bytes = sum(path.stat().st_size for path in db_files(prefix))
    report = fsck(str(prefix), engine=workload.engine)
    if not report.ok:
        problems.append("fsck: " + report.render_text())
    return problems, {
        "store_bytes_per_object": store_bytes / workload.live_objects(),
        "recovery_s": statistics.median(recovery_times),
    }


# -- the run ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from repro.errors import OdeError
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    prefix = workdir / name
    workload = cls(seed)
    if tracer:
        tracer.install()
    gc.collect()  # every timed section starts from the same collector state
    began = time.perf_counter()
    db = set_up(workload, prefix)
    setup_times = [time.perf_counter() - began]
    if tracer:
        tracer.uninstall()

    crashed = workdir / f"{name}-crashed"
    survivor, problems = crash(cls, seed, crashed)
    # Read here, after a fixed amount of work: the program keeps memory per
    # transaction (MVCC state versions, transaction outcomes), so a peak
    # read after the measured phase would grow with txn_per_s.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recovery_times: list[float] = []
    recovered = True

    def take_samples(chunk: int) -> None:
        """Before chunk *chunk*: set-ups and reopens up to its share."""
        nonlocal recovered
        share = (chunk + 1) / WINDOWS
        while (sum(setup_times) < SETUP_BUDGET_S * share
               and len(setup_times) < MAX_SETUPS * share):
            setup_times.append(time_set_up(cls, seed, workdir / f"{name}-setup"))
        while recovered and (len(recovery_times) <= chunk
                             or sum(recovery_times) < RECOVERY_BUDGET_S * share):
            try:
                recovery_times.append(time_reopen(survivor, crashed))
            except OdeError as exc:
                # The program could not recover the crashed database: a
                # failed check, and no recovery_s or store size to report.
                problems.append("recovery after the crash failed: "
                                f"{type(exc).__name__}: {exc}")
                recovered = False

    clients = start_clients(workload, db, seed)
    firings_before = db.trigger_system.stats.firings

    def measured_phase(between=None):
        for client in clients:
            del client.samples[:]
            client.attempted = client.committed = client.failed = 0
        wal = prefix.with_name(prefix.name + (".wal" if workload.engine == "disk"
                                              else ".oplog"))
        wal_before = wal.stat().st_size
        before = stats_snapshot(db)
        chunks = []
        for chunk in range(WINDOWS):
            if between:
                between(chunk)
            gc.collect()
            began_ns = time.perf_counter_ns()
            elapsed, hung = run_clients(workload, db, clients, seconds=seconds / WINDOWS)
            chunks.append((began_ns, time.perf_counter_ns()))
            if hung:
                problems.append(f"{hung} client(s) still running {elapsed:.0f} s "
                                "into a closed loop")
        return {
            "chunks": chunks,
            "committed": sum(c.committed for c in clients),
            "attempted": sum(c.attempted for c in clients),
            "failed": sum(c.failed for c in clients),
            "wal_bytes": wal.stat().st_size - wal_before,
            "delta": delta(stats_snapshot(db), before),
        }

    _, hung = run_clients(workload, db, clients, count=WARMUP, record=False)
    if hung:
        problems.append(f"{hung} client(s) hung in the warm-up")
    # The traced run reports no set-up or recovery time: it takes no samples.
    phase = measured_phase(None if tracer else take_samples)
    latencies, counts = phase_metrics(workload, clients, phase["chunks"])
    tps = latencies["txn_per_s"]
    layers = None
    if tracer:
        tracer.phase = tracer.PHASES.index("measure")
        tracer.install()
        try:
            traced = measured_phase()
        finally:
            tracer.uninstall()
        summary = tracer.summary("measure")
        traced_tps = phase_metrics(workload, clients, traced["chunks"])[0]["txn_per_s"]
        layers = layer_metrics(summary, tracer.summary("setup"), traced["delta"],
                               traced["attempted"], traced_tps, tps)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{name}.spans")

    for client in clients:
        problems.extend(f"client {client.index}: {err}" for err in client.errors[:3])
        client.errors.clear()
    problems += workload.check_outputs(
        db, db.trigger_system.stats.firings - firings_before)
    db.close()

    metrics = {
        **latencies,
        "error_rate": ratio(phase["failed"], phase["attempted"]),
        "wal_bytes_per_txn": ratio(phase["wal_bytes"], phase["committed"]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    counts["setup_s"] = len(setup_times)
    if recovered:
        try:
            found, durable = check_recovery(survivor, crashed, recovery_times)
        except OdeError as exc:
            problems.append("recovery after the crash failed: "
                            f"{type(exc).__name__}: {exc}")
        else:
            problems += found
            metrics.update(durable)
            counts["recovery_s"] = len(recovery_times)
    return {
        "workload": name,
        "provenance": {
            "why": cls.why,
            "sizes": workload.sizes(),
            "engine": workload.engine,
            "trigger_cc": workload.trigger_cc,
            "flush_policy": FLUSH_POLICY,
            "closed_loop_clients": workload.clients,
            "seed": seed,
            "seconds": seconds,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "scaling_notes": SCALING_NOTES,
        },
        "samples": counts,
        "problems": problems,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
        "layers": layers,
    }


def render(result: dict, trace: bool) -> tuple[list[str], dict]:
    """The printed table and the metrics of the last-line result."""
    lines = [f"workload {result['workload']}: {result['provenance']['why']}"]
    for key, value in result["provenance"].items():
        if key != "why":
            lines.append(f"  {key}: {value}")
    lines.append(f"  samples: {result['samples']}")
    chosen = {}
    for name, unit in END_TO_END + PRINTED_ONLY:
        value = result["metrics"].get(name)
        if value is not None:
            lines.append(f"{name:40s} {value:14.6f} {unit}")
            if (name, unit) in END_TO_END and not trace:
                chosen[name] = {"value": value, "unit": unit}
    if trace:
        for name, unit in PER_LAYER:
            value = result["layers"][name]
            lines.append(f"{name:40s} {value:14.6f} {unit}")
            chosen[name] = {"value": value, "unit": unit}
    for problem in result["problems"]:
        lines.append(f"CHECK FAILED: {problem}")
    return lines, chosen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("monitor", "ledger", "hotspot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines, metrics = render(result, bool(args.trace))
    correct = not result["problems"]
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
