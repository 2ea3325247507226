"""``PostEvent`` — the heart of trigger processing (paper Section 5.4.5).

Posting a basic event to an object:

1. Skip immediately if the object's control information says it has no
   active triggers (footnote 3) — the common, cheap case.
2. Look up the object's active ``TriggerState`` records in the trigger
   index.
3. For each, resolve the ``TriggerInfo`` through ``trigobjtype`` (needed
   because an object can carry active triggers from several base classes),
   advance its integer-keyed FSM — evaluating masks and feeding the
   ``True``/``False`` pseudo-events until quiescent — and, when the state
   changed, write the TriggerState back (acquiring a **write lock**: this
   is the "triggers turn read access into write access" effect of
   Section 6 that experiment E6 measures; under ``trigger_cc="mvcc"`` the
   advance goes to a per-transaction buffer instead).
4. Only after *all* active triggers have seen the event are the ready ones
   fired — "to prevent the action of one trigger from affecting the mask of
   another trigger".  Immediate triggers run now (sequentially, in
   activation order — Ode lacks nested transactions and fires "in an
   unspecified order which maintains the conceptual semantics"); the other
   coupling modes queue onto the transaction's end / dependent /
   !dependent lists, processed by the commit and abort paths.

Steps 3–4 are one loop, :func:`post_to_machines`, for both concurrency
schemes, both tiers, and the in-memory local rules: what differs per
scheme sits behind a small state store, and every advancer — generated
code or the interpreter — has the signature ``(statenum, eventnum, obj,
params, event) -> (state, consumed, accepted, steps)``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.trigger_def import CouplingMode, TriggerInfo
from repro.core.trigger_state import TriggerState
from repro.errors import TransactionAbort
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import TriggerSystem
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction

END_LIST = "trigger:end_list"
DEPENDENT_LIST = "trigger:dependent_list"
INDEPENDENT_LIST = "trigger:independent_list"
#: Per-transaction cache of the 2PL state store: state_rid -> (decoded
#: TriggerState, TriggerInfo, advance, masks).  Sound under 2PL —
#: the first ``storage.read`` of a state record takes a shared lock held
#: to commit, so within one transaction nobody else can change it, and
#: our own writes go through the cached object.  The cache dies with the
#: transaction, so aborts need no special handling.  The reserved ``"!v"``
#: entry (rids are ints, so no collision) pins the compile-tier schema
#: version the advances were resolved against (None: tier off).
COMPILED_STATE_CACHE = "trigger:compiled_states"


class FrozenKwargs(Mapping):
    """An immutable, hashable mapping for event keyword arguments.

    Masks read ``event.kwargs`` like a dict (``get``, ``[]``, ``in``); what
    they cannot do is mutate it — an occurrence is a snapshot of one
    instant, shared between every trigger the posting reaches and any
    trace record that captures it.  Hashing follows tuple semantics: it
    works when the values are hashable and raises otherwise.
    """

    __slots__ = ("_d",)

    def __init__(self, items: Mapping | tuple = ()):
        # bypass Mapping's __setattr__-less protocol; _d is never rebound
        object.__setattr__(self, "_d", dict(items))

    def __getitem__(self, key):
        return self._d[key]

    def __contains__(self, key):
        return key in self._d

    def __iter__(self):
        return iter(self._d)

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        if isinstance(other, FrozenKwargs):
            return self._d == other._d
        if isinstance(other, Mapping):
            return self._d == dict(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._d.items())))

    def __repr__(self):
        return f"FrozenKwargs({self._d!r})"


#: Shared empty mapping — the common "no keyword arguments" case.
EMPTY_KWARGS = FrozenKwargs()


@dataclasses.dataclass(frozen=True)
class EventOccurrence:
    """One event instance, carrying the member function's arguments.

    The Section 8 "attributes of events" extension: masks may inspect "the
    parameters passed to the corresponding member function".  ``args`` /
    ``kwargs`` are the invocation arguments for member-function events and
    empty for user-defined and transaction events.

    Occurrences are genuinely immutable: ``args`` is normalized to a tuple
    and ``kwargs`` is *copied* into a :class:`FrozenKwargs` at
    construction, so a caller mutating the dict it passed in (or a mask
    poking at a shared occurrence such as the activation-time
    ``NULL_OCCURRENCE``) can never change what other triggers — or trace
    records — observe.  This also makes occurrences hashable/comparable by
    value, which the frozen dataclass always promised but a raw ``dict``
    field silently broke.
    """

    eventnum: int
    method: str = ""
    args: tuple = ()
    kwargs: Mapping = EMPTY_KWARGS

    def __post_init__(self):
        if type(self.args) is not tuple:
            object.__setattr__(self, "args", tuple(self.args))
        kwargs = self.kwargs
        if type(kwargs) is not FrozenKwargs:
            object.__setattr__(
                self, "kwargs", FrozenKwargs(kwargs) if kwargs else EMPTY_KWARGS
            )


#: Occurrence used when masks run outside any posting (trigger activation).
NULL_OCCURRENCE = EventOccurrence(eventnum=0)


@dataclasses.dataclass
class FiringRecord:
    """A detected trigger occurrence queued for (possibly later) firing."""

    trigger_id: PersistentPtr
    state: TriggerState
    info: TriggerInfo


@dataclasses.dataclass
class TriggerContext:
    """What a trigger action sees when it runs."""

    db: "Database"
    txn: "Transaction"
    trigger_id: PersistentPtr
    info: TriggerInfo
    params: dict[str, Any]
    coupling: CouplingMode

    @property
    def args(self) -> tuple[Any, ...]:
        """Activation arguments in declaration order."""
        return tuple(self.params[name] for name in self.info.params)

    def tabort(self, reason: str = "tabort from trigger action") -> None:
        """Abort the surrounding transaction (O++ ``tabort``)."""
        raise TransactionAbort(reason)


@dataclasses.dataclass
class PostingStats:
    """Instrumentation for experiments E3/E6/E10.

    Mounted on the database's :class:`~repro.obs.metrics.MetricsRegistry`
    under the ``posting.`` prefix; the plain-int fields stay because the
    posting hot path increments them directly.

    Mask evaluations are counted *separately* for the posting path and for
    activation-time quiescing: ``activate()`` evaluates start-state masks
    once per activation, and folding that into the per-posting count
    polluted E3's overhead-per-posting numbers whenever a benchmark
    activated triggers inside the measured window.
    """

    events_posted: int = 0
    skipped_no_triggers: int = 0
    fsm_advances: int = 0
    state_writes: int = 0
    #: masks evaluated while advancing a machine on a posted event
    masks_evaluated_posting: int = 0
    #: masks evaluated while quiescing a freshly activated machine
    masks_evaluated_activation: int = 0
    firings: int = 0
    #: events posted through the :func:`post_many` batch API
    batched: int = 0
    #: postings whose ready set contained a statically non-confluent
    #: trigger pair (the firing-order guard observed a real race)
    nonconfluent_firing_sets: int = 0
    #: per-trigger advances served by the generated-code fast path
    compiled_hits: int = 0
    #: per-trigger advances that wanted the fast path but fell back to the
    #: interpreter (ODE4xx proof withheld for that trigger)
    compiled_fallbacks: int = 0

    @property
    def masks_evaluated(self) -> int:
        """Legacy aggregate of both mask counters (read-only)."""
        return self.masks_evaluated_posting + self.masks_evaluated_activation

    def reset(self) -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def snapshot(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Per-field delta of the current values against *before*."""
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}


class PostingSystem:
    """What the posting kernel needs of a trigger system.

    Shared by the persistent :class:`~repro.core.manager.TriggerSystem`
    and the in-memory :class:`~repro.core.monitored.LocalTriggerSystem`:
    the posting counters, the generated-code tier (DESIGN.md §14) with
    its per-system opt-out, and the canonical firing order.
    """

    def __init__(self) -> None:
        from repro.core.compiled import global_compiled_tier

        self.stats = PostingStats()
        # The tier is process-global (trigger infos and their artifacts
        # are); the flag is per-system so the compiled≡interpreted
        # differential and the interpreted benchmark rows can opt out.
        self.compiled = global_compiled_tier()
        self.compiled_enabled = True
        # Static confluence verdicts, lazily computed per anchor class:
        # metatype id -> frozenset of non-confluent trigger-name pairs.
        self._confluence_cache: dict[int, frozenset[frozenset[str]]] = {}

    def advancer(self, info: TriggerInfo, defining=None):
        """The advance posting uses for *info*: the generated code when
        the tier is on and the ODE4xx proof holds, else the interpreter."""
        if self.compiled_enabled:
            return self.compiled.advancer_for(info, defining)
        return info.interpreter

    def nonconfluent_pairs(self, cls: type) -> frozenset[frozenset[str]]:
        """The statically non-confluent trigger-name pairs of *cls*.

        Computed once per class from inferred action effects (see
        ``repro.analysis.confluence``) and cached; analysis failures
        degrade to "no known races" rather than breaking posting.
        """
        metatype = getattr(cls, "__metatype__", None)
        if metatype is None:
            return frozenset()
        cached = self._confluence_cache.get(id(metatype))
        if cached is None:
            from repro.analysis.confluence import non_confluent_pairs

            try:
                cached = non_confluent_pairs(metatype)
            except Exception:
                cached = frozenset()
            self._confluence_cache[id(metatype)] = cached
        return cached

    def order_ready(self, ready: list, cls: type) -> list:
        """Canonical firing order for one posting's ready set.

        The documented order is *activation order* — exactly what the
        trigger index yields — so the list is returned unchanged.  The
        guard's job is detection: when the set contains a pair the
        analyzer proved non-confluent, the posting is counted in
        ``stats.nonconfluent_firing_sets`` (ODE202 flags the same pair
        statically; suppressing it and relying on this order is the
        sanctioned escape hatch).
        """
        pairs = self.nonconfluent_pairs(cls)
        if pairs:
            names = [record.info.name for record in ready]
            if any(
                frozenset((names[i], names[j])) in pairs
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ):
                self.stats.nonconfluent_firing_sets += 1
        return ready


# ---------------------------------------------------------------------------
# The posting kernel
# ---------------------------------------------------------------------------


def _emitting(masks: Mapping, info: TriggerInfo, span: int, phase: str) -> dict:
    """*masks* wrapped so every evaluation emits a ``mask.eval`` record."""

    def wrap(name, mask):
        def evaluate(obj, params, event):
            outcome = bool(mask(obj, params, event))
            obs.emit(
                "mask.eval",
                span,
                mask=name,
                trigger=info.name,
                outcome=outcome,
                phase=phase,
            )
            return outcome

        return evaluate

    return {name: wrap(name, mask) for name, mask in masks.items()}


def start_state(
    system: PostingSystem, info: TriggerInfo, obj: Any, params: dict
) -> int:
    """A freshly activated machine's state: its start state, quiesced.

    An expression like ``(*a) & m`` puts the start state under a mask
    obligation before any event arrives.  Counted apart from posting
    (``masks_evaluated_activation``) so per-posting overhead stays honest.
    """
    masks = info.masks
    if obs.ENABLED:
        masks = _emitting(masks, info, obs.NO_SPAN, "activation")
    state, steps = info.fsm.quiesce(
        info.fsm.start, lambda name: masks[name](obj, params, NULL_OCCURRENCE)
    )
    system.stats.masks_evaluated_activation += steps
    return state


def post_to_machines(
    system: PostingSystem,
    store,
    eventnum: int,
    obj: Any,
    occurrence: EventOccurrence,
    machines,
    span: int,
) -> int:
    """PostEvent steps (a)–(c) over *machines*; returns #firings.

    The one FSM-advance loop, for every scheme and both tiers.  *store*
    is the scheme's state access: ``load(key, obj, eventnum, occurrence)
    -> (state, info, advance, masks)``, where *masks* is the table the
    advance evaluates; ``save(key, state, info, new_state, span)`` when
    the advance changed the state; ``record(key, state, info)`` for an
    accepting machine; and ``fire(record)``.
    """
    stats = system.stats
    tiered = system.compiled_enabled
    load, save = store.load, store.save
    ready = []
    for key in machines:
        tstate, info, advance, masks = load(key, obj, eventnum, occurrence)
        if tiered:
            if advance is info.interpreter:
                stats.compiled_fallbacks += 1
            else:
                stats.compiled_hits += 1
        if span:
            masks = _emitting(masks, info, span, "posting")
        if masks is not info.masks:
            advance = advance.rebind(masks)
        old_state = tstate.statenum
        new_state, consumed, accepted, steps = advance(
            old_state, eventnum, obj, tstate.params, occurrence
        )
        stats.fsm_advances += 1
        stats.masks_evaluated_posting += steps
        if span:
            obs.emit(
                "fsm.advance",
                span,
                trigger=info.name,
                from_state=old_state,
                to_state=new_state,
                consumed=consumed,
                accepted=accepted,
                pseudo_steps=steps,
            )
        if new_state != old_state:
            save(key, tstate, info, new_state, span)
        if accepted:
            ready.append(store.record(key, tstate, info))

    # Fire only after every trigger has had the basic event posted.  When
    # more than one detection completed on the same posting, consult the
    # static confluence verdict: non-confluent sets keep the documented
    # canonical order (activation order, as yielded by the index) and are
    # counted, so racy schedules are observable in the stats.
    if len(ready) > 1:
        ready = system.order_ready(ready, type(obj))
    for order, record in enumerate(ready):
        if span:
            obs.emit(
                "fire",
                span,
                trigger=record.info.name,
                coupling=record.info.coupling.value,
                order=order,
            )
        store.fire(record)
        stats.firings += 1
    return len(ready)


def _resolve(db: "Database", tstate: TriggerState):
    """(defining metatype, TriggerInfo) of a stored TriggerState —
    through ``trigobjtype``, since an object can carry active triggers
    from several base classes."""
    defining = db.registry.find(tstate.trigobjtype)
    return defining, defining.trigger_info(tstate.triggernum)


class _TxnStore:
    """State access for the persistent schemes; one per posting run."""

    def __init__(self, system: "TriggerSystem", db: "Database", txn: "Transaction"):
        self.system = system
        self.db = db
        self.txn = txn
        #: which advancers a cached machine may reuse: the tier's schema
        #: version, or None while the tier is off
        self.tier_version = (
            system.compiled.version if system.compiled_enabled else None
        )

    def record(self, rid: int, tstate: TriggerState, info: TriggerInfo):
        return FiringRecord(PersistentPtr(self.db.name, rid), tstate, info)

    def fire(self, record: FiringRecord) -> None:
        dispatch_firing(self.system, self.db, self.txn, record)


class _LockedStore(_TxnStore):
    """Strict 2PL: read and decode once per transaction, write in place.

    The decoded machines live in the transaction's
    :data:`COMPILED_STATE_CACHE`, pinned to :attr:`tier_version`; their
    advances evaluate the trigger's own masks.
    """

    def __init__(self, system, db, txn):
        super().__init__(system, db, txn)
        cache = txn.attachment(COMPILED_STATE_CACHE, dict)
        if cache.get("!v") != self.tier_version:
            cache.clear()
            cache["!v"] = self.tier_version
        self.cache = cache

    def load(self, rid: int, obj, eventnum, occurrence):
        machine = self.cache.get(rid)
        if machine is None:
            tstate = TriggerState.decode(self.db.storage.read(self.txn.txid, rid))
            defining, info = _resolve(self.db, tstate)
            advance = self.system.advancer(info, defining)
            machine = self.cache[rid] = (tstate, info, advance, info.masks)
        return machine

    def save(self, rid, tstate, info, new_state, span):
        tstate.statenum = new_state
        # The write that turns a read-only access into a write lock.
        self.db.storage.write(self.txn.txid, rid, tstate.encode())
        self.system.stats.state_writes += 1
        if span:
            obs.emit("state.write", span, state_rid=rid, trigger=info.name)


def recorded(outcome: bool):
    """A mask that answers what it said at posting time."""
    return lambda obj, params, event: outcome


class _BufferedStore(_TxnStore):
    """MVCC (DESIGN.md §15): advance a per-transaction buffer entry.

    First touch clones the latest *committed* version of the TriggerState
    (no lock, no read of uncommitted data — see
    :meth:`~repro.core.versioned.TriggerVersionManager.committed_head`);
    later touches reuse the working copy.  Every posted event is appended
    to the entry's log — including ones the FSM ignores from the current
    state, because a commit-time replay from a *different* head may
    consume them — with the mask outcomes seen at posting time.
    """

    def __init__(self, system, db, txn):
        super().__init__(system, db, txn)
        self.versions = system.versions
        self.buffer = self.versions.buffer_of(txn)
        self.replays = self.versions.conflict_policy == "replay"

    def load(self, rid: int, obj, eventnum, occurrence):
        entry = self.buffer.entries.get(rid)
        if entry is None:
            from repro.core.versioned import BufferEntry

            head = self.versions.committed_head(rid)
            tstate = head.state.clone()
            defining, info = _resolve(self.db, tstate)
            entry = BufferEntry(
                base_vid=head.vid, state=tstate, info=info, defining=defining, obj=obj
            )
            self.buffer.entries[rid] = entry
        if entry.advance is None or entry.advance_version != self.tier_version:
            entry.advance = self.system.advancer(entry.info, entry.defining)
            entry.advance_version = self.tier_version
        tstate, info = entry.state, entry.info
        # Capture what every mask says *now*, and advance on exactly that:
        # a commit-time replay from a different head can walk a different
        # DFA path and ask for masks this advance never reached, and by
        # then the transaction may have mutated ``obj`` — replay must see
        # the posting-time outcomes.  Only the advance's own pseudo steps
        # count in ``masks_evaluated_posting``; a mask that raises here is
        # left unrecorded (the advance and any replay evaluate it live).
        outcomes: dict[str, bool] = {}
        masks = info.masks
        if masks and self.replays and not entry.fresh:
            masks = {}
            for name, mask in info.masks.items():
                try:
                    outcomes[name] = bool(mask(obj, tstate.params, occurrence))
                except Exception:
                    masks[name] = mask
                else:
                    masks[name] = recorded(outcomes[name])
        entry.events.append((eventnum, occurrence, outcomes))
        # Shared with the chain mutex (MvccStats discipline): posting runs
        # on concurrent session threads, so the increment must not tear.
        with self.versions.stats._mutex:
            self.versions.stats.buffered_advances += 1
        return tstate, info, entry.advance, masks

    def save(self, rid, tstate, info, new_state, span):
        tstate.statenum = new_state
        if span:
            obs.emit("state.buffer", span, state_rid=rid, trigger=info.name)


def post_event(
    system: "TriggerSystem",
    db: "Database",
    eventnum: int,
    ptr: PersistentPtr,
    obj: "Persistent",
    occurrence: EventOccurrence | None = None,
) -> int:
    """Post one basic event integer to one object; returns #firings queued."""
    return post_many(system, db, ((eventnum, ptr, obj, occurrence),))


def post_many(
    system: "TriggerSystem",
    db: "Database",
    batch,
) -> int:
    """Post a batch of events in order; returns total firings queued.

    *batch* is an iterable of ``(eventnum, ptr, obj, occurrence)``
    tuples (``occurrence`` may be ``None``).  Semantically identical to
    calling :func:`post_event` once per tuple — same advance order, same
    firing points, same stats — but the fixed per-posting costs are paid
    once per batch instead:

    * one ``txn_manager.current()`` resolution;
    * one state-store set-up (the 2PL state-cache probe, or the MVCC
      advance buffer);
    * one trigger-index lookup per *distinct rid*, via a batch-local
      ``rid -> state_rids`` cache;
    * one ``obs.ENABLED`` check for the quiet common case.

    The caches are dropped after any posting that fired: an immediate
    action can activate or deactivate machines (changing index buckets)
    and flip obs or the compiled tier, so nothing observed before the
    firing may be trusted after it.  :func:`post_event` is a batch of one.
    """
    stats = system.stats
    total = 0
    txn = store = None
    index_cache: dict[int, list[int]] = {}
    tracing = obs.ENABLED
    for eventnum, ptr, obj, occurrence in batch:
        stats.events_posted += 1
        if occurrence is None:
            occurrence = EventOccurrence(eventnum=eventnum)
        span = 0
        if tracing:
            span = obs.begin_span(
                "post",
                eventnum=eventnum,
                method=occurrence.method,
                rid=ptr.rid,
                type=type(obj).__name__,
                session=db.current_session().name,
            )
        # Footnote 3: the persistent object's control information says
        # whether any triggers are active — if not, no index lookup.
        if not obj.__dict__.get("_p_flags", 0) & FLAG_HAS_TRIGGERS:
            stats.skipped_no_triggers += 1
            if span:
                obs.end_span(span, "post", skipped="no-active-triggers")
            continue
        if store is None:
            if txn is None:
                txn = db.txn_manager.current()
            scheme = _LockedStore if system.versions is None else _BufferedStore
            store = scheme(system, db, txn)
        state_rids = index_cache.get(ptr.rid)
        if state_rids is None:
            state_rids = system.index.lookup(txn, ptr.rid)
            index_cache[ptr.rid] = state_rids
        if span:
            obs.emit(
                "index.lookup",
                span,
                rid=ptr.rid,
                txid=txn.txid,
                states=len(state_rids),
            )
        fired = post_to_machines(
            system, store, eventnum, obj, occurrence, state_rids, span
        )
        if span:
            obs.end_span(span, "post", firings=fired)
        total += fired
        if fired:
            index_cache.clear()
            store = None
            tracing = obs.ENABLED
    return total


def dispatch_firing(
    system: "TriggerSystem",
    db: "Database",
    txn: "Transaction",
    record: FiringRecord,
) -> None:
    """Route a detected occurrence according to its coupling mode."""
    coupling = record.info.coupling
    if coupling is CouplingMode.IMMEDIATE:
        run_action(system, db, txn, record)
    elif coupling is CouplingMode.END:
        txn.attachment(END_LIST, list).append(record)
    elif coupling is CouplingMode.DEPENDENT:
        txn.attachment(DEPENDENT_LIST, list).append(record)
    else:  # CouplingMode.INDEPENDENT
        txn.attachment(INDEPENDENT_LIST, list).append(record)


def run_action(
    system: "TriggerSystem",
    db: "Database",
    txn: "Transaction",
    record: FiringRecord,
) -> None:
    """Execute a trigger's action in *txn*, deactivating once-only triggers.

    The action gets the trigger's anchor object as a persistent handle, so
    method calls from within the action post events and can cascade into
    further trigger firings (conceptually nested transactions,
    Section 5.4.5).  ``TransactionAbort`` raised by the action propagates —
    that is ``tabort`` doing its job.
    """
    handle = db.deref(record.state.trigobj)
    ctx = TriggerContext(
        db=db,
        txn=txn,
        trigger_id=record.trigger_id,
        info=record.info,
        params=dict(record.state.params),
        coupling=record.info.coupling,
    )
    if obs.ENABLED:
        obs.emit(
            "action.run",
            trigger=record.info.name,
            coupling=record.info.coupling.value,
            txid=txn.txid,
            session=txn.session_name,
        )
    record.info.action(handle, ctx)
    if not record.info.perpetual:
        # missing_ok: a once-only trigger detected twice before its queued
        # firing ran would otherwise fail the second deactivation.
        system.deactivate(record.trigger_id, missing_ok=True)
