"""Regressions that every posting configuration must agree on.

Posting runs one FSM-advance loop (``repro.core.posting.post_to_machines``)
for both tiers (generated code and the interpreter), both ``trigger_cc``
schemes, and local rules.  These tests pin behaviour that the separate
per-configuration advance paths once got wrong:

* a mask on a nullable loop, ``relative((*A) & m, A)``, rests at the
  instant's fixpoint instead of raising ``FSMError`` — at activation and
  at posting, everywhere;
* the generated advance and the interpreter agree on every quadruple
  ``(state, consumed, accepted, steps)`` for arbitrary expressions,
  nullable mask loops included;
* under MVCC, a machine re-activated on the rid of one the same
  transaction deactivated keeps its buffered advance through the merge.
"""

import random
import types

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import deactivate
from repro.core.compiled import PlanError, generate_advance
from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.registry import EventRegistry
from repro.core.trigger_def import IntFsm
from repro.events.ast import BasicEvent, Masked, Relative, Star
from repro.events.compile import compile_expression
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from tests.test_property_events import EXPRS, MASKS, SYMBOLS

_FIRED: list[str] = []

LOOP = "relative((*A) & m, A)"
#: (event or "arm", firings expected from it): nothing fires while the
#: mask is false; once it holds, the first A completes ``(*A) & m`` and
#: the next A completes the relative.
SCRIPT = [("A", 0), ("A", 0), ("arm", 0), ("A", 0), ("A", 1), ("A", 1)]


def _loop_action(self, ctx):
    _FIRED.append("Loop")


class NullableLoop(Persistent):
    armed = field(bool, default=False)

    __events__ = ["A"]
    __masks__ = {"m": lambda self: self.armed}
    __triggers__ = [trigger("Loop", LOOP, action=_loop_action, perpetual=True)]


class LocalNullableLoop(Monitored):
    __events__ = ["A"]
    __masks__ = {"m": lambda self: self.armed}
    __triggers__ = [trigger("Loop", LOOP, action=_loop_action, perpetual=True)]

    def __init__(self):
        self.armed = False


@pytest.fixture(autouse=True)
def _clear_fired():
    _FIRED.clear()
    yield
    _FIRED.clear()


@pytest.mark.parametrize("trigger_cc", ["2pl", "mvcc"])
@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_nullable_loop_mask_quiesces_persistent(tmp_path, trigger_cc, compiled):
    db = Database.open(str(tmp_path / "loop"), engine="mm", trigger_cc=trigger_cc)
    try:
        system = db.trigger_system
        system.compiled_enabled = compiled
        with db.transaction():
            h = db.pnew(NullableLoop)
            ptr = h.ptr
            h.Loop()  # start state carries the mask obligation, m false
        for event, expected in SCRIPT:
            _FIRED.clear()
            with db.transaction():
                h = db.deref(ptr)
                if event == "arm":
                    h.armed = True
                else:
                    h.post_event(event)
            assert len(_FIRED) == expected, (event, expected)
        stats = system.stats
        if compiled:
            assert stats.compiled_hits > 0 and stats.compiled_fallbacks == 0
        else:
            assert stats.compiled_hits == 0
    finally:
        db.close()


@pytest.mark.parametrize("compiled", [False, True], ids=["interpreted", "compiled"])
def test_nullable_loop_mask_quiesces_local(compiled):
    system = LocalTriggerSystem()
    system.compiled_enabled = compiled
    obj = LocalNullableLoop()
    handle = system.monitor(obj)
    handle.Loop()
    for event, expected in SCRIPT:
        _FIRED.clear()
        if event == "arm":
            obj.armed = True
        else:
            handle.post_event(event)
        assert len(_FIRED) == expected, (event, expected)
    assert (system.stats.compiled_hits > 0) == compiled


def _int_fsm(expr):
    compiled = compile_expression(expr, SYMBOLS)
    registry = EventRegistry()
    symbol_to_int = {s: registry.assign("T", s) for s in SYMBOLS}
    pseudo = {}
    for mask in compiled.masks:
        pseudo[(mask, True)] = registry.assign("T", "true:" + mask)
        pseudo[(mask, False)] = registry.assign("T", "false:" + mask)
    return IntFsm(compiled, symbol_to_int, pseudo), symbol_to_int


@settings(max_examples=200, deadline=None)
@given(expr=EXPRS.filter(lambda e: not e.nullable()), stream=st.lists(st.sampled_from(SYMBOLS), max_size=20),
       seed=st.integers(0, 2**16))
@example(  # relative((*A) & m1, A): the mask's false arm loops to itself
    expr=Relative(
        Masked(Star(BasicEvent("user", "A")), "m1"), BasicEvent("user", "A")
    ),
    stream=["A", "B", "A", "A", "C", "A"],
    seed=10,  # m1 false on the first four events, then true
)
def test_generated_advance_equals_interpreter(expr, stream, seed):
    fsm, symbol_to_int = _int_fsm(expr)
    outcomes: dict[str, bool] = {}
    masks = {m: (lambda obj, params, event, _m=m: outcomes[_m]) for m in MASKS}
    info = types.SimpleNamespace(
        fsm=fsm, masks=masks, defining_type="T", name="Prop"
    )
    try:
        generated = generate_advance(info).advance
    except PlanError:
        assume(False)
    interpreted = fsm.advancer(masks)
    rng = random.Random(seed)
    outcomes.update({m: rng.random() < 0.5 for m in MASKS})
    state, _ = fsm.quiesce(fsm.start, lambda m: outcomes[m])
    for symbol in stream:
        outcomes.update({m: rng.random() < 0.5 for m in MASKS})
        eventnum = symbol_to_int[symbol]
        expected = interpreted(state, eventnum, None, {}, None)
        assert generated(state, eventnum, None, {}, None) == expected
        state = expected[0]


class Reborn(Persistent):
    n = field(int, default=0)

    __events__ = ["Tick", "Tock"]
    __triggers__ = [
        trigger(
            "Pair",
            "Tick, Tock",
            action=lambda self, ctx: _FIRED.append("Pair"),
            perpetual=True,
        )
    ]


def _reactivate_then_tock(path, engine, trigger_cc):
    """Deactivate a machine, re-activate it in the same transaction (the
    engine may hand back the freed rid) and post Tick; then Tock."""
    db = Database.open(path, engine=engine, trigger_cc=trigger_cc)
    try:
        with db.transaction():
            h = db.pnew(Reborn)
            ptr = h.ptr
            first = h.Pair()
        with db.transaction():
            h = db.deref(ptr)
            deactivate(first)
            second = h.Pair()
            h.post_event("Tick")
        _FIRED.clear()
        with db.transaction():
            db.deref(ptr).post_event("Tock")
        return list(_FIRED), first.rid == second.rid
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_mvcc_keeps_the_advance_of_a_reactivated_rid(tmp_path, engine):
    fired_2pl, _ = _reactivate_then_tock(str(tmp_path / "2pl"), engine, "2pl")
    fired_mvcc, reused = _reactivate_then_tock(str(tmp_path / "mvcc"), engine, "mvcc")
    assert fired_2pl == ["Pair"]
    assert fired_mvcc == fired_2pl
    if engine == "disk":
        assert reused  # the case this test exists for
