"""The benchmark's own tests: tiny runs print every metric, and no check
passes vacuously — each one fails when fed a corrupted result."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads
from repro import Database
from repro.errors import PageError
from workloads import WORKLOADS, BenchAccount, Client

BENCH = Path(run.__file__).resolve().parent

#: How a run reports the disk engine's crash-recovery defect (see the
#: README): the run fails, and so does this test, as an expected failure.
KNOWN_DEFECT = "recovery after the crash failed"


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload so a whole run takes about a second."""
    monkeypatch.setattr(workloads.Monitor, "cards", 15)
    monkeypatch.setattr(workloads.Ledger, "accounts", 60)
    monkeypatch.setattr(workloads.Ledger, "batch", 25)
    monkeypatch.setattr(workloads.Hotspot, "hot", 4)
    monkeypatch.setattr(run, "WARMUP", 5)
    monkeypatch.setattr(run, "P99_MIN_SAMPLES", 20)
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.0)
    monkeypatch.setattr(run, "RECOVERY_BUDGET_S", 0.0)


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.3",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    failed_checks = [line for line in out.splitlines()
                     if line.startswith("CHECK FAILED")]
    if failed_checks and all(KNOWN_DEFECT in line for line in failed_checks):
        pytest.xfail(failed_checks[0])
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    for metric, unit in expected:
        assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                   for line in out.splitlines()), metric
    if not trace:
        for metric in ("txn_per_s", "txn_p50_ms", "setup_s", "recovery_s"):
            assert result["metrics"][metric]["value"] > 0


def test_benchmark_json_matches_the_command():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # ledger is left out until the known defect is fixed (see below).
    assert [w["name"] for w in spec["workloads"]] == ["monitor", "hotspot"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_missing_program_source_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "ledger", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    from tracer import Tracer

    def refuse(self):
        raise AssertionError("the untraced run installed a wrapper")

    monkeypatch.setattr(Tracer, "install", refuse)
    assert run.main(["--workload", "hotspot", "--seed", "1", "--seconds", "0.2"]) == 0
    capsys.readouterr()


def test_traced_run_restores_every_wrapped_function(capsys):
    from tracer import TARGETS

    before = [getattr(owner, attr) for owner, attr, _ in TARGETS]
    assert run.main(["--workload", "monitor", "--seed", "1", "--seconds", "0.2",
                     "--trace", "1"]) == 0
    capsys.readouterr()
    assert [getattr(owner, attr) for owner, attr, _ in TARGETS] == before


# -- every check fails on a corrupted result --------------------------------------


@pytest.fixture
def ran(tmp_path):
    """A populated database of each workload after 150 transactions a client."""
    opened = []

    def make(name):
        workload = WORKLOADS[name](3)
        prefix = tmp_path / name
        db = workload.open(str(prefix))
        opened.append(db)
        workload.populate(db)
        if workload.clients == 1:
            clients = [Client(0, 3)]
        else:
            clients = [Client(i, 3, db.session(f"c{i}"))
                       for i in range(workload.clients)]
        firings = db.trigger_system.stats.firings
        run.run_clients(workload, db, clients, count=150)
        assert not any(c.errors for c in clients)
        return workload, db, clients, db.trigger_system.stats.firings - firings, prefix

    yield make
    for db in opened:
        if not db.closed:
            db.close()


def reopen(workload, db, clients, prefix):
    """Leave the in-flight transaction and reopen: closing aborts it, as the
    crash would.  These tests are about the checks; the benchmark run
    itself exercises crash recovery."""
    workload.leave_in_flight(db, clients)
    db.close()
    return workload.open(str(prefix))


def test_monitor_checks_catch_corruption(ran):
    workload, db, clients, firings, prefix = ran("monitor")
    assert workload.check_outputs(db, firings) == []
    assert any(e.raised for e in workload.log), "no AutoRaiseLimit firing to test"
    assert any(not e.committed for e in workload.log), "no DenyCredit tabort"
    assert workload.check_outputs(db, firings + 1)  # a firing too many
    raised = next(e for e in workload.log if e.raised)
    raised.raised = False  # a missing AutoRaiseLimit firing
    assert workload.check_outputs(db, firings)
    raised.raised = True
    denied = next(e for e in workload.log if not e.committed)
    denied.committed = True  # a DenyCredit tabort that did not happen
    assert workload.check_outputs(db, firings)
    denied.committed = False

    db = reopen(workload, db, clients, prefix)
    assert workload.check_recovered(db) == []
    card = workload.log[-1].card
    bal, lim = workload.model[card]
    workload.model[card] = (bal + 0.01, lim)  # acknowledged, not recovered
    assert workload.check_recovered(db)
    db.close()


def test_ledger_checks_catch_corruption(ran):
    workload, db, clients, firings, prefix = ran("ledger")
    assert workload.check_outputs(db, firings) == []
    assert workload.check_outputs(db, 1)  # a firing with no trigger active
    deltas = workload.deltas[0]
    account, amount = next(iter(deltas.items()))
    deltas[account] = amount + 5  # a transfer that was never acknowledged
    assert workload.check_outputs(db, firings)
    deltas[account] = amount

    db = reopen(workload, db, clients, prefix)
    assert workload.check_recovered(db) == []
    inserted = next(ptrs for ptrs in workload.inserted if ptrs)
    dropped = inserted.pop()  # an acknowledged insert the client forgot
    assert workload.check_recovered(db)
    inserted.append(dropped)
    db.close()


def test_hotspot_checks_catch_corruption(ran):
    workload, db, clients, firings, prefix = ran("hotspot")
    assert workload.check_outputs(db, firings) == []
    workload.observed[0] -= 1  # a missing Watch firing
    assert workload.check_outputs(db, firings)
    workload.observed[0] += 1

    db = reopen(workload, db, clients, prefix)
    assert workload.check_recovered(db) == []
    workload.acked[1] += 1  # a commit acknowledged but not recovered
    assert workload.check_recovered(db)
    db.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unacknowledged_effect_would_be_caught(ran, name):
    """Committing the in-flight transaction instead of crashing leaves an
    effect no client acknowledged: the durability check must see it."""
    workload, db, clients, _, prefix = ran(name)
    workload.leave_in_flight(db, clients)
    in_flight = next(s for s in db.sessions() if s.name == "in-flight")
    in_flight.commit()
    db.close()
    db = workload.open(str(prefix))
    assert workload.check_recovered(db)
    db.close()


@pytest.mark.xfail(strict=True, raises=PageError, reason=(
    "known defect: disk crash recovery re-places forwarded record bodies "
    "at slots that later logged inserts own; ledger's durability check "
    "fails on the same defect"))
def test_disk_recovery_after_a_bulk_load(tmp_path):
    db = Database.open(str(tmp_path / "bulk"))
    with db.transaction():
        for i in range(400):
            db.pnew(BenchAccount, owner=f"owner-{i}", balance=1)
    db.simulate_crash()
    Database.open(str(tmp_path / "bulk")).close()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: disk crash recovery follows a forward pointer to a record "
    "body that never reached disk; list ledger in BENCHMARK.json again once "
    "this passes"))
def test_ledger_durability_fails_on_the_known_defect(monkeypatch, capsys):
    """ledger at its full size, as the command runs it."""
    monkeypatch.setattr(workloads.Ledger, "accounts", 6000)
    monkeypatch.setattr(workloads.Ledger, "batch", 500)
    code = run.main(["--workload", "ledger", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out
    failed_checks = [line for line in out.splitlines()
                     if line.startswith("CHECK FAILED")]
    if any(KNOWN_DEFECT not in line for line in failed_checks):
        pytest.fail(out)  # any other failed check is a real failure
    assert code == 0 and not failed_checks, failed_checks
