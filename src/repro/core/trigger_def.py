"""Trigger declarations, coupling modes, and integer-keyed FSMs.

:class:`TriggerDecl` is what a class definition writes (via the
:func:`repro.core.declarations.trigger` helper); the declaration processor
compiles it into a :class:`TriggerInfo` — the paper's Section 5.4.4
"trigger information container": FSM, action function, perpetual flag,
coupling mode — stored in the defining class's metatype.

:class:`IntFsm` is the run-time machine keyed by the globally-unique event
integers: each state carries a *sparse* transition list searched linearly,
exactly the representation of Section 5.4.3 ("Any event which does not
appear in a state's Transition list is ignored").
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Mapping
from typing import Any, Callable

from repro.errors import TriggerDeclarationError
from repro.events.compile import CompiledMachine
from repro.events.fsm import DEAD, quiesce_walk


class CouplingMode(enum.Enum):
    """The ECA coupling modes Ode supplies (paper Section 4.2)."""

    IMMEDIATE = "immediate"
    END = "end"  # deferred: fired right before the transaction commits
    DEPENDENT = "dependent"  # separate txn, commit-dependent on detector
    INDEPENDENT = "!dependent"  # separate txn, no commit dependency

    @classmethod
    def parse(cls, value: "CouplingMode | str") -> "CouplingMode":
        if isinstance(value, cls):
            return value
        for mode in cls:
            if mode.value == value:
                return mode
        if value == "deferred":
            return cls.END
        raise TriggerDeclarationError(
            f"unknown coupling mode {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclasses.dataclass
class TriggerDecl:
    """A trigger as written in a class definition (pre-compilation)."""

    name: str
    expression: str
    action: Callable[..., Any] | str
    params: tuple[str, ...] = ()
    perpetual: bool = False
    coupling: CouplingMode | str = CouplingMode.IMMEDIATE
    masks: dict[str, Callable[..., bool]] = dataclasses.field(default_factory=dict)
    #: User events the action is declared to raise (``post_user_event``
    #: calls, or member calls whose events cascade).  Purely declarative —
    #: the run time does not enforce it — but it makes the trigger→trigger
    #: posting graph statically known, which is what the analyzer's
    #: cascade-cycle pass (ODE030/ODE031) reasons over.
    posts: tuple[str, ...] = ()
    #: Analyzer diagnostic codes acknowledged as intended for this trigger
    #: (e.g. ``("ODE020",)`` on a deliberate alert-then-escalate pair).
    suppress: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Integer-keyed run-time FSM (paper Section 5.4.3)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class IntTransition:
    """``struct Transition { unsigned int eventnum; int newstate; }``"""

    eventnum: int
    newstate: int


@dataclasses.dataclass(frozen=True)
class IntState:
    """``class State``: number, accept status, masks, sparse transitions."""

    statenum: int
    accept: bool
    masks: tuple[str, ...]
    transfunc: tuple[IntTransition, ...]

    def next_state(self, eventnum: int) -> int | None:
        """Linear search of the sparse transition list, as the paper does."""
        for transition in self.transfunc:
            if transition.eventnum == eventnum:
                return transition.newstate
        return None


class IntFsm:
    """A compiled machine whose alphabet is globally-unique event integers."""

    def __init__(
        self,
        compiled: CompiledMachine,
        symbol_to_int: dict[str, int],
        pseudo_ints: dict[tuple[str, bool], int],
    ):
        self.compiled = compiled
        self.symbol_to_int = dict(symbol_to_int)
        self.pseudo_ints = dict(pseudo_ints)
        self.anchored = compiled.anchored
        self.start = compiled.fsm.start
        self.alphabet_ints = frozenset(symbol_to_int.values()) | frozenset(
            pseudo_ints.values()
        )
        states = []
        for state in compiled.fsm.states:
            transfunc = tuple(
                IntTransition(symbol_to_int[symbol], dst)
                for symbol, dst in sorted(state.transitions.items())
                if symbol in symbol_to_int
            ) + tuple(
                IntTransition(pseudo_ints[key], dst)
                for key, dst in sorted(
                    (
                        ((sym.split(":", 1)[1], sym.startswith("true:")), dst)
                        for sym, dst in state.transitions.items()
                        if sym.startswith(("true:", "false:"))
                    )
                )
            )
            states.append(
                IntState(state.statenum, state.accept, state.masks, transfunc)
            )
        self.states: tuple[IntState, ...] = tuple(states)

    def __len__(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return sum(len(s.transfunc) for s in self.states)

    def move(self, statenum: int, eventnum: int) -> tuple[int, bool]:
        """One transition on an event integer; missing = ignored (or dead)."""
        if statenum == DEAD:
            return DEAD, False
        nxt = self.states[statenum].next_state(eventnum)
        if nxt is not None:
            return nxt, True
        if self.anchored and eventnum in self.alphabet_ints:
            return DEAD, True
        return statenum, False

    def quiesce(
        self, statenum: int, evaluate_mask: Callable[[str], bool]
    ) -> tuple[int, int]:
        """Evaluate pending masks, feeding pseudo-events back in — the same
        walk as :meth:`repro.events.fsm.Fsm.quiesce` (one value per mask
        per instant; a revisited state is the instant's fixpoint)."""
        current, steps, _ = quiesce_walk(
            self, statenum, evaluate_mask, self.pseudo_ints.__getitem__
        )
        return current, steps

    def advancer(self, masks: Mapping[str, Callable[..., bool]]) -> Callable:
        """The interpreter, behind the compiled tier's advance signature.

        Returns ``advance(statenum, eventnum, obj, params, event) ->
        (state, consumed, accepted, steps)`` — paper Section 5.4.5 steps
        (a)–(b): move on the basic event, then quiesce the mask
        pseudo-events, calling ``masks[name](obj, params, event)``.
        Acceptance counts any state *visited* while processing the posting
        (footnote 5: at most once per posting either way).  Like every
        advancer, the result carries ``rebind(masks)``, which makes the
        same advancer over another mask table.
        """
        move, pseudo = self.move, self.pseudo_ints.__getitem__

        def advance(statenum, eventnum, obj, params, event):
            current, consumed = move(statenum, eventnum)
            if not consumed:
                return current, False, False, 0
            current, steps, accepted = quiesce_walk(
                self, current, lambda name: masks[name](obj, params, event), pseudo
            )
            return current, True, accepted, steps

        advance.rebind = self.advancer
        return advance


@dataclasses.dataclass
class TriggerInfo:
    """Everything about one trigger (paper Section 5.4.4 ``TriggerInfo``)."""

    name: str
    triggernum: int
    defining_type: str
    compiled: CompiledMachine
    fsm: IntFsm
    action: Callable[..., Any]
    perpetual: bool
    coupling: CouplingMode
    params: tuple[str, ...]
    #: mask name -> normalized (instance, params) predicate
    masks: dict[str, Callable[..., bool]] = dataclasses.field(default_factory=dict)
    #: mask name -> the predicate exactly as declared (pre-``_adapt_mask``)
    #: — what the ODE4xx compilability pass runs effect inference on; the
    #: arity adapter is an opaque indirection that would widen everything
    #: to unknown.  May be missing entries for run-time bridge triggers.
    mask_specs: dict[str, Callable[..., bool]] = dataclasses.field(
        default_factory=dict
    )
    #: declared user events the action raises (from ``TriggerDecl.posts``)
    posts: tuple[str, ...] = ()
    #: mask names registered per-trigger at declaration (before filtering
    #: to the ones the expression uses) — kept for the ODE011 lint
    declared_masks: tuple[str, ...] = ()
    #: analyzer codes the declaration explicitly acknowledges as intended
    suppress: tuple[str, ...] = ()
    #: the action exactly as declared (a method name string or the raw
    #: callable), before ``_adapt_action`` wraps it — the effect-inference
    #: analyzer resolves string actions against the class from this
    action_spec: Any = None

    def __post_init__(self) -> None:
        #: this trigger's interpreted advance over its own masks — built
        #: once, so the posting kernel can tell it from generated code
        self.interpreter = self.fsm.advancer(self.masks)

    def __repr__(self) -> str:
        return (
            f"<TriggerInfo {self.defining_type}.{self.name} "
            f"#{self.triggernum} {self.coupling.value}"
            f"{' perpetual' if self.perpetual else ''}>"
        )
