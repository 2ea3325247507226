"""The trigger system: activation, deactivation, coupling modes, tx events.

One :class:`TriggerSystem` is attached to each open database.  It owns the
persistent trigger index, installs the coupling-mode hooks on every
transaction, and implements the Section 5.5 transaction integration:

* **end** (deferred) actions run inside the committing transaction,
  *immediately before* the ``before tcomplete`` events are posted;
* **dependent** actions run in one system transaction after commit (their
  commit dependency on the detecting transaction is then satisfied);
* **!dependent** actions run in their own system transaction after commit
  *or* after abort — they are the only trigger effect an aborted
  transaction can leave behind;
* ``before tcomplete`` / ``before tabort`` are posted to the transaction's
  "transaction event object" list, built when interested objects are first
  accessed in the transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.posting import (
    COMPILED_STATE_CACHE,
    DEPENDENT_LIST,
    END_LIST,
    INDEPENDENT_LIST,
    PostingSystem,
    TriggerContext,
    post_event,
    run_action,
    start_state,
)
from repro.core.trigger_def import TriggerInfo
from repro.core.trigger_index import TriggerIndex
from repro.core.trigger_state import TriggerId, TriggerState
from repro.errors import (
    RecordNotFoundError,
    TriggerArgumentError,
    TriggerError,
    TriggerNotActiveError,
    UnknownEventError,
)
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction

TX_EVENT_OBJECTS = "trigger:tx_event_objects"


class TriggerSystem(PostingSystem):
    """Run-time trigger facilities for one database."""

    def __init__(self, db: "Database"):
        super().__init__()
        self.db = db
        self.index = TriggerIndex(db)
        metrics = getattr(db, "metrics", None)
        if metrics is not None:
            metrics.register_source("posting", self.stats)
        # The trigger-state concurrency-control A/B switch (DESIGN.md §15):
        # ``None`` means strict 2PL (the baseline — advances X-lock and
        # rewrite the state record in place); a TriggerVersionManager means
        # advances buffer against copy-on-write versions and merge at commit.
        self.versions = None
        if getattr(db, "trigger_cc", "2pl") == "mvcc":
            from repro.core.versioned import TriggerVersionManager

            self.versions = TriggerVersionManager(
                db, conflict_policy=getattr(db, "mvcc_conflict", "replay")
            )
            if metrics is not None:
                metrics.register_source("mvcc", self.versions.stats)
        db.txn_manager.on_begin(self._install_hooks)

    # -- transaction hook installation ----------------------------------------

    def _install_hooks(self, txn: "Transaction") -> None:
        txn.before_commit.append(self._before_commit)
        txn.after_commit.append(self._after_commit)
        txn.before_abort.append(self._before_abort)
        txn.after_abort.append(self._after_abort)

    # -- activation / deactivation (Section 4.1, 5.4.1) -------------------------

    def activate(
        self, db: "Database", ptr: PersistentPtr, info: TriggerInfo, *args: Any
    ) -> TriggerId:
        """Activate *info* on the object at *ptr*; returns the TriggerId.

        This is the run-time half of the generated static activation
        function of Section 5.4.1: allocate the TriggerState, store the
        arguments, put the machine in its start state (evaluating any
        start-state masks), and index it.
        """
        txn = db.txn_manager.current()
        if len(args) != len(info.params):
            raise TriggerArgumentError(
                f"trigger {info.defining_type}.{info.name} takes "
                f"{len(info.params)} argument(s) {info.params}, got {len(args)}"
            )
        handle = db.deref(ptr)
        defining_meta = db.registry.find(info.defining_type)
        defining_cls = defining_meta.pyclass
        if not isinstance(handle.obj, defining_cls):
            raise TriggerError(
                f"trigger {info.name} is defined by {info.defining_type}; "
                f"{type(handle.obj).__name__} is not derived from it"
            )
        params = dict(zip(info.params, args))
        tstate = TriggerState(
            triggernum=info.triggernum,
            trigobj=ptr,
            statenum=start_state(self, info, handle.obj, params),
            trigobjtype=info.defining_type,
            params=params,
        )
        state_rid = db.storage.insert(txn.txid, tstate.encode())
        self.index.add(txn, ptr.rid, state_rid)
        if self.versions is not None:
            # Same-transaction postings must find this machine in the
            # advance buffer (its record is uncommitted, so the version
            # chain cannot be loaded from storage yet).
            self.versions.register_fresh(
                txn, state_rid, tstate, info, defining_meta, handle.obj
            )
        if obs.ENABLED:
            obs.emit(
                "trigger.activate",
                trigger=info.name,
                rid=ptr.rid,
                state_rid=state_rid,
                start_state=tstate.statenum,
            )
        # Flip the object's control bit so PostEvent stops skipping it.
        flags = handle.obj.__dict__.get("_p_flags", 0)
        if not flags & FLAG_HAS_TRIGGERS:
            db.set_object_flags(ptr, flags | FLAG_HAS_TRIGGERS)
        return PersistentPtr(db.name, state_rid)

    def deactivate(self, trigger_id: TriggerId, *, missing_ok: bool = False) -> None:
        """Remove an active trigger (paper ``deactivate(TriggerId)``)."""
        db = self.db
        txn = db.txn_manager.current()
        try:
            raw = db.storage.read(txn.txid, trigger_id.rid)
        except RecordNotFoundError:
            if missing_ok:
                return
            raise TriggerNotActiveError(f"{trigger_id!r} is not active") from None
        tstate = TriggerState.decode(raw)
        remaining = self.index.remove(txn, tstate.trigobj.rid, trigger_id.rid)
        db.storage.delete(txn.txid, trigger_id.rid)
        # Storage may reuse the freed rid within this very transaction; a
        # stale compiled-cache entry would then advance a dead machine.
        compiled_cache = txn.attachments.get(COMPILED_STATE_CACHE)
        if compiled_cache:
            compiled_cache.pop(trigger_id.rid, None)
        if self.versions is not None:
            self.versions.mark_deactivated(txn, trigger_id.rid)
        if remaining == 0:
            try:
                handle = db.deref(tstate.trigobj)
            except Exception:
                return  # object already deleted
            flags = handle.obj.__dict__.get("_p_flags", 0)
            if flags & FLAG_HAS_TRIGGERS:
                db.set_object_flags(tstate.trigobj, flags & ~FLAG_HAS_TRIGGERS)

    def active_triggers(
        self, ptr: PersistentPtr
    ) -> list[tuple[TriggerId, TriggerState, TriggerInfo]]:
        """The triggers currently active on the object at *ptr*."""
        txn = self.db.txn_manager.current()
        result = []
        buffer = None
        if self.versions is not None:
            from repro.core.versioned import ADVANCE_BUFFER

            buffer = txn.attachments.get(ADVANCE_BUFFER)
        for state_rid in self.index.lookup(txn, ptr.rid):
            entry = buffer.entries.get(state_rid) if buffer is not None else None
            if entry is not None:
                # This transaction's own buffered advances are visible to
                # it (read-your-writes); clone so callers can't mutate the
                # working copy.
                tstate = entry.state.clone()
            else:
                tstate = TriggerState.decode(
                    self.db.storage.read(txn.txid, state_rid)
                )
            info = self.db.registry.find(tstate.trigobjtype).trigger_info(
                tstate.triggernum
            )
            result.append((PersistentPtr(self.db.name, state_rid), tstate, info))
        return result

    def verify_integrity(self) -> list[str]:
        """Cross-check the trigger index against the TriggerState records.

        Returns a list of problem descriptions (empty = consistent):
        index entries pointing at missing/corrupt state records, states
        whose anchor object is gone, states whose ``trigobjtype`` or
        ``triggernum`` no longer resolves, and FSM state numbers outside
        the compiled machine.  Runs in the current transaction.
        """
        db = self.db
        txn = db.txn_manager.current()
        problems: list[str] = []
        for key, state_rids in self.index._map.items(txn):
            obj_rid = int(key)
            for state_rid in state_rids:
                try:
                    raw = db.storage.read(txn.txid, state_rid)
                except RecordNotFoundError:
                    problems.append(
                        f"index entry {obj_rid} -> {state_rid}: state record missing"
                    )
                    continue
                try:
                    tstate = TriggerState.decode(raw)
                except TriggerError as exc:
                    problems.append(f"state {state_rid}: corrupt ({exc})")
                    continue
                if tstate.trigobj.rid != obj_rid:
                    problems.append(
                        f"state {state_rid}: anchored at {tstate.trigobj.rid}, "
                        f"indexed under {obj_rid}"
                    )
                if not db.storage.exists(txn.txid, tstate.trigobj.rid):
                    problems.append(
                        f"state {state_rid}: anchor object {tstate.trigobj.rid} deleted"
                    )
                try:
                    defining = db.registry.find(tstate.trigobjtype)
                    info = defining.trigger_info(tstate.triggernum)
                except Exception as exc:
                    problems.append(
                        f"state {state_rid}: cannot resolve "
                        f"{tstate.trigobjtype}#{tstate.triggernum} ({exc})"
                    )
                    continue
                from repro.events.fsm import DEAD

                if tstate.statenum != DEAD and not (
                    0 <= tstate.statenum < len(info.fsm)
                ):
                    problems.append(
                        f"state {state_rid}: FSM state {tstate.statenum} out of "
                        f"range for {info.name} ({len(info.fsm)} states)"
                    )
        return problems

    def on_pdelete(self, db: "Database", ptr: PersistentPtr) -> None:
        """Deactivate everything anchored at a deleted object."""
        txn = db.txn_manager.current()
        compiled_cache = txn.attachments.get(COMPILED_STATE_CACHE)
        for state_rid in self.index.drop_all(txn, ptr.rid):
            try:
                db.storage.delete(txn.txid, state_rid)
            except RecordNotFoundError:
                pass
            if compiled_cache:
                compiled_cache.pop(state_rid, None)
            if self.versions is not None:
                self.versions.mark_deactivated(txn, state_rid)

    # -- posting entry points -----------------------------------------------------

    def post_event(
        self,
        db: "Database",
        eventnum: int,
        ptr: PersistentPtr,
        obj: "Persistent",
        occurrence=None,
    ) -> int:
        """Post a basic event by its globally-unique integer."""
        return post_event(self, db, eventnum, ptr, obj, occurrence)

    def post_user_event(
        self, db: "Database", ptr: PersistentPtr, obj: "Persistent", name: str
    ) -> int:
        """Explicitly post a declared user-defined event by name."""
        metatype = type(obj).__metatype__
        for decl in metatype.declared_events:
            if decl.kind == "user" and decl.name == name:
                return post_event(self, db, metatype.event_ints[decl.symbol], ptr, obj)
        raise UnknownEventError(
            f"{metatype.name} declares no user-defined event {name!r}"
        )

    def post_many(self, db: "Database", items) -> int:
        """Post a batch of user-defined events by name; returns firings.

        *items* is an iterable of ``(ptr, obj, event_name)``.  Event
        names resolve to event integers once per metatype for the whole
        batch; names are validated for every item up front, so an
        unknown event aborts the call before anything is posted.  The
        postings themselves go through :func:`repro.core.posting
        .post_many`, which amortizes the per-posting fixed costs.
        """
        from repro.core.posting import post_many

        tables: dict[int, dict[str, int]] = {}
        batch = []
        for ptr, obj, name in items:
            metatype = type(obj).__metatype__
            table = tables.get(id(metatype))
            if table is None:
                table = {
                    decl.name: metatype.event_ints[decl.symbol]
                    for decl in metatype.declared_events
                    if decl.kind == "user"
                }
                tables[id(metatype)] = table
            eventnum = table.get(name)
            if eventnum is None:
                raise UnknownEventError(
                    f"{metatype.name} declares no user-defined event {name!r}"
                )
            batch.append((eventnum, ptr, obj, None))
        self.stats.batched += len(batch)
        return post_many(self, db, batch)

    # -- transaction events (Section 5.5) --------------------------------------------

    def on_access(
        self, txn: "Transaction", ptr: PersistentPtr, obj: "Persistent"
    ) -> None:
        """First-access bookkeeping: build the transaction-event object list."""
        metatype = type(obj).__metatype__
        if any(decl.is_transaction_event for decl in metatype.declared_events):
            txn.attachment(TX_EVENT_OBJECTS, dict)[ptr.rid] = (ptr, obj)

    def _post_tx_event(self, txn: "Transaction", name: str) -> None:
        if obs.ENABLED:
            interested = len(txn.attachment(TX_EVENT_OBJECTS, dict))
            if interested:
                obs.emit(
                    "tx_event.post", event=f"before {name}",
                    txid=txn.txid, objects=interested,
                )
        for ptr, obj in list(txn.attachment(TX_EVENT_OBJECTS, dict).values()):
            metatype = type(obj).__metatype__
            symbol = f"before {name}"
            eventnum = metatype.event_ints.get(symbol)
            if eventnum is not None:
                post_event(self, self.db, eventnum, ptr, obj)

    # -- coupling-mode hooks ------------------------------------------------------------

    def _before_commit(self, txn: "Transaction") -> None:
        # 1. Scan the end list, executing deferred actions (which may
        #    themselves fire more triggers, growing the list — drain it).
        end_list = txn.attachment(END_LIST, list)
        if obs.ENABLED and end_list:
            obs.emit("txn.drain", list="end", txid=txn.txid, queued=len(end_list))
        while end_list:
            record = end_list.pop(0)
            run_action(self, self.db, txn, record)
        # 2. Post before tcomplete right before the commit proper.
        self._post_tx_event(txn, "tcomplete")
        # A tcomplete trigger may have queued further end actions.
        while end_list:
            record = end_list.pop(0)
            run_action(self, self.db, txn, record)

    def _before_abort(self, txn: "Transaction") -> None:
        self._post_tx_event(txn, "tabort")

    def _after_commit(self, txn: "Transaction") -> None:
        self._run_detached(txn, DEPENDENT_LIST, depends_on=txn.txid)
        self._run_detached(txn, INDEPENDENT_LIST, depends_on=None)

    def _after_abort(self, txn: "Transaction") -> None:
        # Dependent actions die with the detecting transaction; !dependent
        # actions run anyway (Section 5.5's abort-path scan).
        self._run_detached(txn, INDEPENDENT_LIST, depends_on=None)

    def _run_detached(
        self, txn: "Transaction", list_key: str, depends_on: int | None
    ) -> None:
        records = txn.attachments.get(list_key) or []
        if not records:
            return
        if obs.ENABLED:
            obs.emit(
                "txn.drain",
                list="dependent" if list_key == DEPENDENT_LIST else "independent",
                txid=txn.txid,
                queued=len(records),
            )

        def body(system_txn: "Transaction") -> None:
            for record in records:
                run_action(self, self.db, system_txn, record)

        # Scheduled, not run inline: the shared queue is drained by whichever
        # session is next between transactions (the committing one, in the
        # common case), and a failed commit dependency discards the entry.
        self.db.txn_manager.schedule_system(body, depends_on=depends_on)
