"""The extended finite state machine — compiled form of an event expression.

This is the paper's Section 5.4.3 structure, symbol-keyed: each state has a
number, an accept flag, the (ordered) masks it must evaluate, and a sparse
transition table.  "Any event which does not appear in a state's Transition
list is ignored" (Section 5.4.3) — for *unanchored* machines that never
happens for alphabet symbols (the implicit ``(*any)`` prefix makes the DFA
complete), and out-of-alphabet events (e.g. derived-class events posted to
a base-class trigger) are ignored by construction.  *Anchored* machines
(``^``) treat a missing alphabet transition as the dead state: the match
window started at activation and has been missed for good.

Mask states drive the ``True``/``False`` pseudo-event protocol of
Section 5.1.2: :meth:`Fsm.advance` evaluates pending masks and feeds the
pseudo-events back into the machine until it quiesces, then reports whether
an accept state was reached.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.errors import EventError, FSMError

TRUE_PREFIX = "true:"
FALSE_PREFIX = "false:"

#: Sentinel state number for the dead state of anchored machines.
DEAD = -1

#: Safety valve for pathological mask cascades (e.g. ``*(any & m)`` with a
#: constant mask); the paper notes "potentially, multiple mask events must
#: be posted before the system quiesces" — we bound "multiple".
MAX_PSEUDO_STEPS = 64


@dataclasses.dataclass(frozen=True)
class EventDecl:
    """A declared basic event: ``after Buy``, ``before PayBill``, ``BigBuy``.

    Transaction events are declared as ``before tcomplete`` /
    ``before tabort`` (kind "before", reserved names).
    """

    kind: str
    name: str

    TX_NAMES = ("tcomplete", "tabort")

    def __post_init__(self) -> None:
        if self.kind not in ("before", "after", "user"):
            raise EventError(f"bad declared-event kind {self.kind!r}")
        if self.name in self.TX_NAMES and self.kind != "before":
            raise EventError(
                f"transaction event {self.name!r} only exists as 'before' "
                "(the paper dropped after-variants; Section 6)"
            )

    @property
    def symbol(self) -> str:
        return self.name if self.kind == "user" else f"{self.kind} {self.name}"

    @property
    def is_transaction_event(self) -> bool:
        return self.name in self.TX_NAMES and self.kind == "before"

    @property
    def is_method_event(self) -> bool:
        return self.kind in ("before", "after") and not self.is_transaction_event

    @classmethod
    def parse(cls, text: str) -> "EventDecl":
        """Parse a declaration like ``"after Buy"`` or ``"BigBuy"``."""
        parts = text.split()
        if len(parts) == 2 and parts[0] in ("before", "after"):
            return cls(parts[0], parts[1])
        if len(parts) == 1 and parts[0].isidentifier():
            return cls("user", parts[0])
        raise EventError(f"cannot parse event declaration {text!r}")

    def __str__(self) -> str:
        return self.symbol


@dataclasses.dataclass
class FsmState:
    """One state: number, accept flag, pending masks, sparse transitions."""

    statenum: int
    accept: bool
    masks: tuple[str, ...]
    transitions: dict[str, int]

    def describe(self) -> str:
        mask = f" *[{', '.join(self.masks)}]" if self.masks else ""
        acc = " (accept)" if self.accept else ""
        edges = ", ".join(
            f"{symbol} -> {dst}" for symbol, dst in sorted(self.transitions.items())
        )
        return f"state {self.statenum}{mask}{acc}: {edges or '<none>'}"


def _pseudo_symbol(key: tuple[str, bool]) -> str:
    mask, outcome = key
    return (TRUE_PREFIX if outcome else FALSE_PREFIX) + mask


def quiesce_walk(fsm, statenum: int, evaluate_mask, pseudo) -> tuple[int, int, bool]:
    """The pseudo-event cascade shared by :class:`Fsm` and the run-time
    :class:`repro.core.trigger_def.IntFsm`: ``(state, steps, seen_accept)``.

    *fsm* provides ``states`` (with ``masks``/``accept``) and ``move``;
    ``pseudo((mask, outcome))`` names the pseudo-event in its alphabet.
    See :meth:`Fsm._quiesce_tracking` for the semantics.
    """
    current = statenum
    steps = 0
    seen_accept = current != DEAD and fsm.states[current].accept
    outcomes: dict[str, bool] = {}
    visited = {current}
    while current != DEAD and fsm.states[current].masks:
        if steps >= MAX_PSEUDO_STEPS:  # pragma: no cover - backstop
            raise FSMError(
                f"mask cascade did not quiesce after {MAX_PSEUDO_STEPS} "
                "pseudo-events; the expression loops on a mask"
            )
        mask = fsm.states[current].masks[0]
        outcome = outcomes.get(mask)
        if outcome is None:
            outcome = outcomes[mask] = bool(evaluate_mask(mask))
        nxt, consumed = fsm.move(current, pseudo((mask, outcome)))
        steps += 1
        if not consumed:
            break
        current = nxt
        seen_accept = seen_accept or (
            current != DEAD and fsm.states[current].accept
        )
        if current in visited:
            break  # pseudo-cycle: this instant's fixpoint
        visited.add(current)
    return current, steps, seen_accept


@dataclasses.dataclass(frozen=True)
class AdvanceResult:
    """Outcome of posting one basic event to a machine."""

    state: int
    consumed: bool
    accepted: bool
    pseudo_steps: int


class Fsm:
    """A compiled (deterministic, extended) event machine."""

    def __init__(
        self,
        states: Sequence[FsmState],
        start: int,
        alphabet: frozenset[str],
        anchored: bool,
    ):
        self.states = list(states)
        self.start = start
        self.alphabet = alphabet
        self.anchored = anchored

    # -- structure -------------------------------------------------------------

    def state(self, statenum: int) -> FsmState:
        if statenum == DEAD:
            raise FSMError("the dead state has no descriptor")
        return self.states[statenum]

    def __len__(self) -> int:
        return len(self.states)

    def transition_count(self) -> int:
        return sum(len(s.transitions) for s in self.states)

    def accept_states(self) -> list[int]:
        return [s.statenum for s in self.states if s.accept]

    def mask_states(self) -> list[int]:
        return [s.statenum for s in self.states if s.masks]

    def describe(self) -> str:
        header = (
            f"FSM: {len(self.states)} states, start={self.start}, "
            f"{'anchored' if self.anchored else 'unanchored'}, "
            f"alphabet={sorted(self.alphabet)}"
        )
        return "\n".join([header] + [s.describe() for s in self.states])

    # -- run-time semantics ------------------------------------------------------

    def move(self, statenum: int, symbol: str) -> tuple[int, bool]:
        """One raw transition; returns ``(newstate, consumed)``.

        Missing transitions: ignored for unanchored machines and for
        symbols outside the alphabet; dead for anchored machines on
        alphabet symbols.
        """
        if statenum == DEAD:
            return DEAD, False
        state = self.states[statenum]
        nxt = state.transitions.get(symbol)
        if nxt is not None:
            return nxt, True
        if self.anchored and symbol in self.alphabet:
            return DEAD, True
        return statenum, False

    def quiesce(
        self,
        statenum: int,
        evaluate_mask: Callable[[str], bool],
    ) -> tuple[int, int]:
        """Evaluate pending masks until none remain; ``(state, steps)``.

        Needed at trigger activation: an expression like ``(*a) & m`` puts
        the *start* state under a mask obligation before any event arrives.
        """
        current, steps, _ = self._quiesce_tracking(statenum, evaluate_mask)
        return current, steps

    def _quiesce_tracking(
        self,
        statenum: int,
        evaluate_mask: Callable[[str], bool],
    ) -> tuple[int, int, bool]:
        """Quiesce, also reporting whether any *visited* state accepts.

        An accept state may simultaneously carry a mask obligation for an
        overlapping next match (e.g. ``+((a & m), a)``: the accept state
        awaits *m* for the iteration the final ``a`` could restart).  The
        paper's step (c) checks whether an accept state "has been reached",
        so passing *through* one during the pseudo-event cascade must still
        fire the trigger even when a failed mask then moves the machine on.

        A mask predicate is evaluated against a single instant — no events
        intervene during the cascade — so each mask has exactly one value
        here (memoized; the rescan oracle likewise records one outcome per
        posting).  With outcomes fixed the cascade is a deterministic walk
        over finitely many states: it either reaches a mask-free state or
        revisits a state, and a revisited state is a fixpoint (a mask on a
        nullable loop, e.g. ``relative((*a) & m, b)``, restarts its own
        obligation) — re-checking cannot change anything, so quiescing
        stops there and the machine rests until the next real event.
        """
        return quiesce_walk(self, statenum, evaluate_mask, _pseudo_symbol)

    def advance(
        self,
        statenum: int,
        symbol: str,
        evaluate_mask: Callable[[str], bool],
    ) -> AdvanceResult:
        """Post one basic event: move, quiesce mask pseudo-events, report.

        *evaluate_mask* is called with a mask name and must return a bool;
        the machine feeds the corresponding ``True``/``False`` pseudo-event
        back in, repeating while the current state is a mask state
        (Section 5.4.5 step (b)).
        """
        current, consumed = self.move(statenum, symbol)
        pseudo_steps = 0
        seen_accept = False
        if consumed:
            current, pseudo_steps, seen_accept = self._quiesce_tracking(
                current, evaluate_mask
            )
        return AdvanceResult(current, consumed, consumed and seen_accept, pseudo_steps)
