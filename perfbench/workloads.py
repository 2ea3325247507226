"""The benchmark's three closed-loop workloads: ``monitor``, ``ledger``, ``hotspot``.

Each workload drives the database only through its public API
(``Database.open``, ``Database.session``, ``Session.run``, ``deref``/``pnew``,
member calls through persistent handles, ``post_event``) and keeps, on the
client side, a model of every acknowledged effect.  The models feed three
kinds of check, all run by :mod:`run`:

* ``check_outputs`` — what the engine did during the run (firings, tabort
  outcomes, conservation) against an FSM-free or arithmetic model;
* ``leave_in_flight`` — just before the crash, one transaction that is
  never acknowledged plus one that is;
* ``check_recovered`` — after the crash and reopen, every acknowledged
  effect is present and the unacknowledged one is absent.

Sizes are class attributes so the benchmark's own tests can shrink them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from array import array
from typing import Any, Callable

from repro import Database, Persistent, field, parse, trigger
from repro.baselines.rescan import RescanDetector
from repro.transactions.txn import TxnState

#: Transaction classes a latency sample can belong to (see ``KINDS``).
READ, POST, UPDATE, INSERT = "read", "post", "update", "insert"


def serial_run(db: Database, body: Callable[[Any], None]) -> TxnState:
    """One transaction through the serial API (``with db.transaction()``).

    A ``tabort`` ends the block quietly, as in O++; the final state says
    whether the transaction committed.  Kept as a module-level function so
    the traced run can wrap it as the serial counterpart of ``Session.run``.
    """
    with db.transaction() as txn:
        body(txn)
    return txn.state


def open_run(session, body: Callable[[Any], Any]):
    """Begin a transaction on *session* and run *body* in it, leaving it
    open; returns the transaction.  With :func:`commit_run`, the two halves
    of ``Session.run`` for a client that overlaps its transactions with
    another's; module-level so the traced run can wrap them as roots."""
    txn = session.begin()
    try:
        body(txn)
    except BaseException:
        session.abort()
        raise
    return txn


def commit_run(session) -> None:
    """Commit the transaction :func:`open_run` left open."""
    session.commit()


class Client:
    """One closed-loop application thread and what it observed."""

    def __init__(self, index: int, seed: int, session=None):
        self.index = index
        # A str seed hashes the same way in every process (random uses
        # sha512 for str seeds), so each client's choices are reproducible.
        self.rng = random.Random(f"perfbench/{seed}/{index}")
        self.session = session
        #: kind (index in the workload's KINDS), end_ns, latency_ns and
        #: committed, four ints per measured transaction, kept in an array
        #: so the harness adds little to the process's peak_rss_mb
        self.samples = array("q")
        self.attempted = 0
        self.committed = 0
        self.failed = 0
        self.errors: list[str] = []


class Workload:
    """What every workload provides to the harness in :mod:`run`."""

    name = ""
    engine = "disk"
    trigger_cc = "2pl"
    clients = 1
    #: Whether one thread drives every client, each transaction left open
    #: while the next client's runs (see ``start``), instead of a thread
    #: per client calling ``transaction``.
    overlapped = False
    why = ""
    #: transaction kind -> the latency classes it counts in
    KINDS: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench/{seed}/population")

    def open(self, path: str) -> Database:
        return Database.open(path, engine=self.engine, trigger_cc=self.trigger_cc)

    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def populate(self, db: Database) -> None:
        raise NotImplementedError

    def transaction(self, db: Database, client: Client) -> tuple[str, bool]:
        """Run one client transaction; returns (kind, committed)."""
        raise NotImplementedError

    def start(self, db: Database, client: Client) -> Callable[[], tuple[str, bool]]:
        """Begin one client transaction and run its body; returns the call
        that commits it and returns (kind, committed).  Overlapped
        workloads only."""
        raise NotImplementedError

    def check_outputs(self, db: Database, firings: int) -> list[str]:
        """Problems with what the engine did; *firings* is the engine's
        firing count over everything after set-up."""
        raise NotImplementedError

    def leave_in_flight(self, db: Database, clients: list[Client]) -> None:
        raise NotImplementedError

    def check_recovered(self, db: Database) -> list[str]:
        raise NotImplementedError

    def live_objects(self) -> int:
        raise NotImplementedError


# -- monitor ---------------------------------------------------------------------


def _deny_credit(self, ctx) -> None:
    ctx.tabort("credit limit exceeded")


class BenchCard(Persistent):
    """The paper's Section 4 credit card with DenyCredit and AutoRaiseLimit."""

    cred_lim = field(float, default=1000.0)
    curr_bal = field(float, default=0.0)

    __events__ = ["after buy", "after pay_bill"]
    __masks__ = {
        "over_limit": lambda self: self.curr_bal > self.cred_lim,
        "MoreCred": lambda self: self.curr_bal > 0.8 * self.cred_lim,
    }
    __triggers__ = [
        trigger("DenyCredit", "after buy & over_limit", action=_deny_credit,
                perpetual=True),
        # Figure 1's trigger, once-only as in the paper; the client re-arms
        # it after it fires so every card keeps both triggers active.
        trigger("AutoRaiseLimit", "relative((after buy & MoreCred), after pay_bill)",
                action="raise_limit", params=("amount",)),
    ]

    def buy(self, amount: float) -> None:
        self.curr_bal += amount

    def pay_bill(self, amount: float) -> None:
        self.curr_bal -= amount

    def raise_limit(self, amount: float) -> None:
        self.cred_lim += amount


DENY_EXPR = parse("after buy & over_limit")[0]
RAISE_EXPR = parse("relative((after buy & MoreCred), after pay_bill)")[0]


@dataclasses.dataclass(slots=True)
class CardOp:
    """One monitor transaction as the client saw it."""

    card: int
    op: str
    factor: float
    amount: float = 0.0
    pre: tuple[float, float] | None = None
    committed: bool = False
    raised: bool = False


class Monitor(Workload):
    name = "monitor"
    why = (
        "Posting does most of the work: control bit, index lookup, FSM advance "
        "and masks, TriggerState write, firing; cards fit the buffer pool, one "
        "session, no lock waits, no MVCC merge."
    )
    KINDS = {"buy": (POST, UPDATE), "pay": (POST, UPDATE), "query": (READ,)}
    cards = 1000
    zipf = 0.6
    start_limit = 1000.0
    raise_amount = 500.0

    def sizes(self) -> dict[str, Any]:
        return {"cards": self.cards, "card_zipf_s": self.zipf,
                "buffer_pool_pages": 128, "sessions": 1, "threads": 1}

    def populate(self, db: Database) -> None:
        # Balances start near where the buy/pay mix settles (about two
        # thirds of the limit), so deny and raise rates hold steady from the
        # first transaction instead of climbing through the run.
        self.start_balances = [round(self.start_limit * self.rng.uniform(0.2, 0.9), 2)
                               for _ in range(self.cards)]
        self.ptrs = []
        with db.transaction():
            for balance in self.start_balances:
                card = db.pnew(BenchCard, cred_lim=self.start_limit, curr_bal=balance)
                card.DenyCredit()
                card.AutoRaiseLimit(self.raise_amount)
                self.ptrs.append(card.ptr)
        # Skewed card choice: rank r is drawn with weight 1/(r+1)^s, and
        # the seed decides which card holds each rank.
        order = list(range(self.cards))
        self.rng.shuffle(order)
        self.rank_to_card = order
        self.cum_weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** self.zipf for rank in range(self.cards)))
        self.log: list[CardOp] = []

    def transaction(self, db: Database, client: Client) -> tuple[str, bool]:
        rng = client.rng
        rank = rng.choices(range(self.cards), cum_weights=self.cum_weights)[0]
        roll = rng.random()
        op = "buy" if roll < 0.6 else "pay" if roll < 0.9 else "query"
        entry = CardOp(self.rank_to_card[rank], op, rng.uniform(0.005, 0.4)
                       if op == "buy" else rng.uniform(0.2, 1.0))
        return op, self._run(db, entry)

    def _run(self, db: Database, entry: CardOp) -> bool:
        ptr = self.ptrs[entry.card]

        def body(txn):
            card = db.deref(ptr)
            bal, lim = card.curr_bal, card.cred_lim
            entry.pre = (bal, lim)
            if entry.op == "buy":
                entry.amount = round(lim * entry.factor, 2)
                card.buy(entry.amount)
            elif entry.op == "pay":
                entry.amount = round(max(bal, 0.0) * entry.factor, 2)
                card.pay_bill(entry.amount)
                if card.cred_lim != lim:  # AutoRaiseLimit fired: re-arm it
                    entry.raised = True
                    card.AutoRaiseLimit(self.raise_amount)

        entry.committed = serial_run(db, body) is TxnState.COMMITTED
        self.log.append(entry)
        return entry.committed

    def replay(self) -> tuple[list[str], int, dict[int, tuple[float, float]]]:
        """Decide every logged transaction with rescan detectors over the
        committed per-card history; returns (problems, AutoRaiseLimit
        firings, model)."""
        problems: list[str] = []
        model = {i: (self.start_balances[i], self.start_limit)
                 for i in range(self.cards)}
        deny: dict[int, RescanDetector] = {}
        arm: dict[int, RescanDetector] = {}
        raises = 0
        for n, e in enumerate(self.log):
            bal, lim = model[e.card]
            if e.pre != (bal, lim):
                problems.append(f"monitor txn {n}: card {e.card} read {e.pre}, "
                                f"committed history gives {(bal, lim)}")
                bal, lim = e.pre  # resynchronise so one fault reports once
            d = deny.setdefault(e.card, RescanDetector(DENY_EXPR))
            a = arm.setdefault(e.card, RescanDetector(RAISE_EXPR))
            denied = raised = False
            if e.op in ("buy", "pay"):
                post = bal + e.amount if e.op == "buy" else bal - e.amount
                masks = {"over_limit": post > lim, "MoreCred": post > 0.8 * lim}
                symbol = "after buy" if e.op == "buy" else "after pay_bill"
                denied = d.post(symbol, masks)
                raised = a.post(symbol, masks)
                if denied:
                    for det in (d, a):  # tabort rolls the event back
                        det.history.pop()
                        det.mask_history.pop()
                else:
                    bal = post
                if raised:
                    lim += self.raise_amount
                    arm[e.card] = RescanDetector(RAISE_EXPR)
            raises += raised
            if e.committed == denied:
                problems.append(f"monitor txn {n}: {e.op} on card {e.card} "
                                f"committed={e.committed}, rescan says "
                                f"tabort={denied}")
            if e.raised != raised:
                problems.append(f"monitor txn {n}: AutoRaiseLimit fired={e.raised}, "
                                f"rescan says {raised}")
            model[e.card] = (bal, lim)
        return problems, raises, model

    def check_outputs(self, db: Database, firings: int) -> list[str]:
        problems, expected, _ = self.replay()
        # The engine counts a firing once its immediate action returns, so
        # DenyCredit's (which taborts) are checked per transaction above.
        if firings != expected:
            problems.append(f"monitor: engine counted {firings} firings, rescan "
                            f"over the committed history gives {expected} "
                            "AutoRaiseLimit firings")
        return problems

    def leave_in_flight(self, db: Database, clients: list[Client]) -> None:
        last = self.log[-1].card if self.log else 0
        victim = (last + 1) % self.cards
        session = db.session("in-flight")
        txn = session.begin()
        card = session.deref(self.ptrs[victim])
        card.curr_bal = card.curr_bal + 1000.0
        db.flush_transaction(txn)
        # The acknowledged write: one more normal client transaction, whose
        # forced commit also makes the in-flight update's log record durable.
        entry = CardOp(last, "pay", 0.5)
        self._run(db, entry)
        _, _, self.model = self.replay()

    def check_recovered(self, db: Database) -> list[str]:
        problems = []
        with db.transaction():
            for i, ptr in enumerate(self.ptrs):
                card = db.deref(ptr)
                if (card.curr_bal, card.cred_lim) != self.model[i]:
                    problems.append(f"monitor: card {i} recovered as "
                                    f"{(card.curr_bal, card.cred_lim)}, "
                                    f"acknowledged state is {self.model[i]}")
        return problems

    def live_objects(self) -> int:
        return self.cards


# -- ledger ----------------------------------------------------------------------


def _unused_action(self, ctx) -> None:
    """Never runs: ledger activates no trigger."""


class BenchAccount(Persistent):
    """An account whose class declares events but activates no trigger."""

    owner = field(str, default="")
    balance = field(int, default=0)

    __events__ = ["after deposit", "after withdraw"]
    __masks__ = {"overdrawn": lambda self: self.balance < 0}
    __triggers__ = [
        trigger("Overdraft", "after withdraw & overdrawn", action=_unused_action,
                perpetual=True),
    ]

    def deposit(self, amount: int) -> None:
        self.balance += amount

    def withdraw(self, amount: int) -> None:
        self.balance -= amount


class Ledger(Workload):
    name = "ledger"
    why = (
        "Storage does most of the work: buffer misses and evictions, WAL append "
        "and fsync from two committers, record locks, extent inserts; every "
        "posting stops at the control bit."
    )
    KINDS = {"read": (READ,), "transfer": (POST, UPDATE), "insert": (INSERT,)}
    clients = 2
    accounts = 6000
    start_balance = 1000
    batch = 500

    def sizes(self) -> dict[str, Any]:
        return {"accounts": self.accounts, "buffer_pool_pages": 128,
                "sessions": self.clients, "threads": self.clients}

    def populate(self, db: Database) -> None:
        self.ptrs = []
        for start in range(0, self.accounts, self.batch):
            with db.transaction():
                for i in range(start, min(start + self.batch, self.accounts)):
                    self.ptrs.append(db.pnew(
                        BenchAccount, owner=f"owner-{i:06d}",
                        balance=self.start_balance).ptr)
        self.deltas: list[dict[int, int]] = [{} for _ in range(self.clients)]
        self.inserted: list[list] = [[] for _ in range(self.clients)]

    def transaction(self, db: Database, client: Client) -> tuple[str, bool]:
        rng, session = client.rng, client.session
        roll = rng.random()
        if roll < 0.5:
            picks = [self.ptrs[i] for i in rng.sample(range(self.accounts), 4)]
            session.run(lambda txn: sum(session.deref(p).balance for p in picks))
            return "read", True
        if roll < 0.9:
            a, b = rng.sample(range(self.accounts), 2)
            self._transfer(client, a, b, rng.randint(1, 100))
            return "transfer", True
        owner = f"owner-c{client.index}-{len(self.inserted[client.index])}"
        ptr = session.run(lambda txn: session.pnew(BenchAccount, owner=owner).ptr)
        self.inserted[client.index].append(ptr)
        return "insert", True

    def _transfer(self, client: Client, a: int, b: int, amount: int) -> None:
        session = client.session

        def body(txn):
            session.deref(self.ptrs[a]).withdraw(amount)
            session.deref(self.ptrs[b]).deposit(amount)

        session.run(body)
        deltas = self.deltas[client.index]
        deltas[a] = deltas.get(a, 0) - amount
        deltas[b] = deltas.get(b, 0) + amount

    def expected_balances(self) -> list[int]:
        balances = [self.start_balance] * self.accounts
        for deltas in self.deltas:
            for i, delta in deltas.items():
                balances[i] += delta
        return balances

    def _check_state(self, db: Database) -> list[str]:
        problems = []
        with db.transaction():
            balances = [db.deref(p).balance for p in self.ptrs]
            extent = {h.ptr: h.balance for h in db.objects(BenchAccount)}
        expected = self.expected_balances()
        inserted = [p for ptrs in self.inserted for p in ptrs]
        total = sum(extent.values())
        if total != self.accounts * self.start_balance:
            problems.append(f"ledger: total balance {total}, expected "
                            f"{self.accounts * self.start_balance}")
        if len(extent) != self.accounts + len(inserted):
            problems.append(f"ledger: extent holds {len(extent)} accounts, expected "
                            f"{self.accounts} populated + {len(inserted)} inserted")
        missing = [p for p in inserted if p not in extent]
        if missing:
            problems.append(f"ledger: {len(missing)} acknowledged inserts missing")
        wrong = [i for i, (got, want) in enumerate(zip(balances, expected))
                 if got != want]
        if wrong:
            i = wrong[0]
            problems.append(f"ledger: {len(wrong)} balances differ from the "
                            f"acknowledged transfers (account {i}: "
                            f"{balances[i]} != {expected[i]})")
        return problems

    def check_outputs(self, db: Database, firings: int) -> list[str]:
        problems = self._check_state(db)
        if firings:
            problems.append(f"ledger: {firings} firings with no active trigger")
        return problems

    def leave_in_flight(self, db: Database, clients: list[Client]) -> None:
        session = db.session("in-flight")
        txn = session.begin()
        session.deref(self.ptrs[0]).deposit(1000)
        session.pnew(BenchAccount, owner="never-acknowledged")
        db.flush_transaction(txn)
        self._transfer(clients[0], 1, 2, 7)

    def check_recovered(self, db: Database) -> list[str]:
        return self._check_state(db)

    def live_objects(self) -> int:
        return self.accounts + sum(len(p) for p in self.inserted)


# -- hotspot ---------------------------------------------------------------------

FIRINGS = "perfbench:watch_firings"


def _watched(self, ctx) -> None:
    """Watch's action: note the firing on the transaction that saw it."""
    ctx.txn.attachment(FIRINGS, list).append(self.ptr)


class BenchHot(Persistent):
    """A hot-set member; ``Watch`` fires on every ``Pong`` after a ``Ping``."""

    value = field(int, default=0)

    __events__ = ["Ping", "Pong"]
    __triggers__ = [
        trigger("Watch", "relative(Ping, Pong)", action=_watched, perpetual=True),
    ]


class BenchTally(Persistent):
    """A client's private count of its acknowledged transactions."""

    count = field(int, default=0)


class Hotspot(Workload):
    name = "hotspot"
    engine = "mm"
    trigger_cc = "mvcc"
    why = (
        "Posting under MVCC: buffered advances with no state locks, a "
        "commit-time merge with conflicts and replay, an action on every "
        "transaction; main-memory storage keeps storage cheap."
    )
    KINDS = {"watch": (POST,)}
    clients = 2
    # Each session's transaction stays open while the other's commits and
    # the other's next one runs, so merges meet concurrent versions as
    # with two threads, in an order the seed alone decides.  Two threads
    # hand the GIL to and fro across both cores of a 2-core shared host and
    # measured its scheduler: ten same-code runs there spread over 51% of
    # the median in txn_per_s.
    overlapped = True
    hot = 16
    watches = 2

    def sizes(self) -> dict[str, Any]:
        return {"hot_objects": self.hot, "watches_per_object": self.watches,
                "buffer_pool_pages": None, "sessions": self.clients,
                "threads": 1}

    def populate(self, db: Database) -> None:
        self.ptrs = []
        with db.transaction():
            for _ in range(self.hot):
                handle = db.pnew(BenchHot)
                for _ in range(self.watches):
                    handle.Watch()
                self.ptrs.append(handle.ptr)
            self.tallies = [db.pnew(BenchTally).ptr for _ in range(self.clients)]
        self.acked = [0] * self.clients
        self.observed = [0] * self.clients

    def transaction(self, db: Database, client: Client) -> tuple[str, bool]:
        return self.start(db, client)()

    def start(self, db: Database, client: Client) -> Callable[[], tuple[str, bool]]:
        session = client.session
        picks = [self.ptrs[i] for i in client.rng.sample(range(self.hot), 2)]
        tally_ptr = self.tallies[client.index]

        def body(txn):
            for ptr in picks:
                hot = session.deref(ptr)
                _ = hot.value
                hot.post_event("Ping")
                hot.post_event("Pong")
            tally = session.deref(tally_ptr)
            tally.count = tally.count + 1

        txn = open_run(session, body)

        def commit() -> tuple[str, bool]:
            commit_run(session)
            self.observed[client.index] += len(txn.attachment(FIRINGS, list))
            self.acked[client.index] += 1
            return "watch", True

        return commit

    def check_outputs(self, db: Database, firings: int) -> list[str]:
        problems = []
        expected = sum(self.acked) * 2 * self.watches  # one Pong per object
        if sum(self.observed) != expected:
            problems.append(f"hotspot: {sum(self.observed)} Watch firings in "
                            f"committed transactions, expected {expected}")
        if firings < expected:
            problems.append(f"hotspot: engine counted {firings} firings, fewer "
                            f"than the {expected} committed")
        return problems

    def leave_in_flight(self, db: Database, clients: list[Client]) -> None:
        session = db.session("in-flight")
        txn = session.begin()
        tally = session.deref(self.tallies[0])
        tally.count = tally.count + 1000
        db.flush_transaction(txn)
        self.transaction(db, clients[1])

    def check_recovered(self, db: Database) -> list[str]:
        problems = []
        with db.transaction() as txn:
            for i, ptr in enumerate(self.tallies):
                count = db.deref(ptr).count
                if count != self.acked[i]:
                    problems.append(f"hotspot: client {i} tally recovered as "
                                    f"{count}, {self.acked[i]} acknowledged")
            # The recovered TriggerStates still detect: every Watch is armed.
            for ptr in self.ptrs:
                db.deref(ptr).post_event("Pong")
            fired = len(txn.attachment(FIRINGS, list))
        if fired != self.hot * self.watches:
            problems.append(f"hotspot: {fired} Watches fired after recovery, "
                            f"expected {self.hot * self.watches}")
        return problems

    def live_objects(self) -> int:
        return self.hot + self.clients


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Monitor, Ledger, Hotspot)
}
