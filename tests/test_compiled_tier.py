"""The generated-code posting fast path and its ODE4xx gate (DESIGN.md §14).

Three families:

* **Differential**: hypothesis-generated event scripts replayed through
  the compiled tier and the interpreter on identical fixtures must
  produce identical firing orders, final FSM states, and posting stats
  (satellite: compiled ≡ interpreted is the tier's entire contract).
* **Invalidation**: any trigger add/remove/strict-mode flip bumps the
  schema version and evicts compiled artifacts; a redefined class must
  never fire a stale closure — including mid-transaction.
* **Judgments**: each ODE400–ODE404 refusal has a fixture, falls back
  cleanly, and `CompiledTier.explain` names the reason.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.compilable import classify_trigger
from repro.core.compiled import (
    global_compiled_tier,
    last_bump_reason,
    schema_version,
)
from repro.core.declarations import set_strict_analysis, trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

# Firing log shared by the fixture actions; cleared per replay.
_FIRED: list[str] = []
# Side channel observed by the deliberately impure mask.
_PROBES: list[int] = []


class TierGadget(Persistent):
    """Differential fixture: sequences, pure masks, params, once-only,
    deferred coupling, and one deliberately non-compilable trigger."""

    n = field(int, default=0)

    __events__ = ["Tick", "Tock", "Bump"]
    __masks__ = {
        "hot": lambda self: self.n > 3,
        "low": lambda self, params: self.n < params["floor"],
    }
    __triggers__ = [
        trigger(
            "Pair",
            "Tick, Tock",
            action=lambda self, ctx: _FIRED.append("Pair"),
            perpetual=True,
        ),
        trigger(
            "Hot",
            "Tick & hot",
            action=lambda self, ctx: _FIRED.append("Hot"),
            perpetual=True,
        ),
        trigger(
            "Low",
            "Bump & low",
            action=lambda self, ctx: _FIRED.append("Low"),
            params=("floor",),
        ),
        trigger(
            "Deferred",
            "Tock",
            action=lambda self, ctx: _FIRED.append("Deferred"),
            coupling="end",
            perpetual=True,
        ),
        trigger(
            "Impure",
            "Tick & noisy",
            action=lambda self, ctx: _FIRED.append("Impure"),
            masks={"noisy": lambda self: (_PROBES.append(1), True)[1]},
            perpetual=True,
        ),
    ]


_BATCH = st.lists(
    st.sampled_from(["tick", "tock", "bump", "inc"]), min_size=1, max_size=6
)
_SCRIPT = st.lists(_BATCH, min_size=1, max_size=8)

COMPILABLE_TRIGGERS = ("Pair", "Hot", "Low", "Deferred")


def _replay(base_path, script, compiled_enabled, trigger_cc="2pl"):
    """Run *script* on a fresh database; return (firings, states, stats)."""
    db = Database.open(base_path, engine="mm", trigger_cc=trigger_cc)
    try:
        db.trigger_system.compiled_enabled = compiled_enabled
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            h.Pair()
            h.Hot()
            h.Low(5)
            h.Deferred()
            h.Impure()
        _FIRED.clear()
        stats = db.trigger_system.stats
        stats.reset()
        for batch in script:
            with db.transaction():
                h = db.deref(ptr)
                for op in batch:
                    if op == "inc":
                        h.n += 1
                    else:
                        h.post_event(op.capitalize())
        fired = list(_FIRED)
        with db.transaction():
            states = sorted(
                (ts.triggernum, ts.statenum)
                for _, ts, _info in db.trigger_system.active_triggers(ptr)
            )
        snapshot = stats.snapshot()
        tier_counters = {
            k: snapshot.pop(k) for k in ("compiled_hits", "compiled_fallbacks")
        }
        return fired, states, snapshot, tier_counters
    finally:
        db.close()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_SCRIPT)
def test_compiled_equals_interpreted(tmp_path_factory, script):
    root = tmp_path_factory.mktemp("difftier")
    interp = _replay(str(root / "interp"), script, compiled_enabled=False)
    compiled = _replay(str(root / "compiled"), script, compiled_enabled=True)
    assert compiled[0] == interp[0]  # firing order, incl. deferred drain
    assert compiled[1] == interp[1]  # surviving states + statenums
    assert compiled[2] == interp[2]  # posting.* counters
    assert interp[3] == {"compiled_hits": 0, "compiled_fallbacks": 0}


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(script=_SCRIPT)
def test_compiled_equals_interpreted_under_mvcc(tmp_path_factory, script):
    """The tier's contract holds unchanged when advances buffer through
    the version chain (DESIGN.md §15) instead of writing in place: the
    BufferEntry caches the generated closure exactly like the 2PL
    per-transaction cache, so firings, surviving states, and posting
    counters must match the MVCC interpreter — except `state_writes`,
    which is 0 by construction under MVCC (merged versions go through
    `storage.write_merged`, not the posting path)."""
    root = tmp_path_factory.mktemp("difftier-mvcc")
    interp = _replay(
        str(root / "interp"), script, compiled_enabled=False, trigger_cc="mvcc"
    )
    compiled = _replay(
        str(root / "compiled"), script, compiled_enabled=True, trigger_cc="mvcc"
    )
    assert compiled[0] == interp[0]  # firing order, incl. deferred drain
    assert compiled[1] == interp[1]  # surviving states + statenums
    assert compiled[2] == interp[2]  # posting.* counters
    assert interp[2]["state_writes"] == 0
    # And across schemes: MVCC commits the same states 2PL would.
    baseline = _replay(str(root / "2pl"), script, compiled_enabled=True)
    assert compiled[1] == baseline[1]


def test_fast_path_engages_and_impure_falls_back(tmp_path):
    script = [["tick", "tock", "bump"], ["inc", "inc", "inc", "inc", "tick"]]
    fired, _states, stats, tier_counters = _replay(
        str(tmp_path / "engage"), script, compiled_enabled=True
    )
    # Six postings saw 4 compilable machines; the Impure trigger fell
    # back on each with an ODE4xx verdict cached in the tier.
    assert tier_counters["compiled_hits"] > 0
    assert tier_counters["compiled_fallbacks"] > 0
    assert stats["fsm_advances"] == (
        tier_counters["compiled_hits"] + tier_counters["compiled_fallbacks"]
    )
    assert "Impure" in fired  # the fallback still fires correctly

    tier = global_compiled_tier()
    metatype = TierGadget.__metatype__
    for name in COMPILABLE_TRIGGERS:
        info = metatype.trigger_by_name(name)
        assert tier.explain(info) == ()
        assert tier.artifact_for(info) is not None
        assert "def _advance" in tier.artifact_for(info).source
    impure = metatype.trigger_by_name("Impure")
    assert tier.artifact_for(impure) is None
    assert [d.code for d in tier.explain(impure)] == ["ODE400"]


def test_verdicts_match_tier_behaviour():
    metatype = TierGadget.__metatype__
    for name in COMPILABLE_TRIGGERS:
        verdict = classify_trigger(metatype.trigger_by_name(name), metatype)
        assert verdict.compilable, (name, verdict.diagnostics)
    verdict = classify_trigger(metatype.trigger_by_name("Impure"), metatype)
    assert not verdict.compilable
    assert "ODE400" in verdict.codes


class LocalProbe(Monitored):
    """Local-rule twin of TierGadget for the LocalTriggerSystem fast path."""

    __events__ = ["Tick", "Tock"]
    __masks__ = {"hot": lambda self: self.n > 3}
    __triggers__ = [
        trigger(
            "Pair",
            "Tick, Tock",
            action=lambda self, ctx: _FIRED.append("Pair"),
            perpetual=True,
        ),
        trigger(
            "Hot",
            "Tick & hot",
            action=lambda self, ctx: _FIRED.append("Hot"),
            perpetual=True,
        ),
    ]

    def __init__(self):
        self.n = 0


def test_local_rules_take_fast_path_with_same_behaviour():
    results = []
    for enabled in (False, True):
        system = LocalTriggerSystem()
        system.compiled_enabled = enabled
        obj = LocalProbe()
        handle = system.monitor(obj)
        handle.Pair()
        handle.Hot()
        _FIRED.clear()
        for event in ("Tick", "Tock", "Tick"):
            handle.post_event(event)
        obj.n = 9
        handle.post_event("Tick")
        results.append(
            (list(_FIRED), system.stats.masks_evaluated_posting,
             system.stats.fsm_advances, system.stats.compiled_hits)
        )
    (interp_fired, interp_masks, interp_adv, interp_hits) = results[0]
    (comp_fired, comp_masks, comp_adv, comp_hits) = results[1]
    assert comp_fired == interp_fired
    assert comp_masks == interp_masks
    assert comp_adv == interp_adv
    assert interp_hits == 0 and comp_hits > 0


# ---------------------------------------------------------------------------
# Invalidation (satellite: stale-closure firing is the scary bug)
# ---------------------------------------------------------------------------


def _define_stale_demo(tag):
    """(Re)define a class named StaleDemo whose action logs *tag*."""
    return type(
        "StaleDemo",
        (Persistent,),
        {
            "__events__": ["Ping"],
            "__triggers__": [
                trigger(
                    "Watch",
                    "Ping",
                    action=lambda self, ctx, _tag=tag: _FIRED.append(_tag),
                    perpetual=True,
                )
            ],
        },
    )


def test_class_compilation_and_strict_flip_bump_schema_version():
    before = schema_version()
    _define_stale_demo("v-bump")
    assert schema_version() == before + 1
    assert "StaleDemo" in last_bump_reason()

    before = schema_version()
    previous = set_strict_analysis(True)
    try:
        assert schema_version() == before + 1
        assert "strict_analysis" in last_bump_reason()
    finally:
        set_strict_analysis(previous)
    assert schema_version() == before + 2  # restoring flips again


def test_register_shim_bumps_schema_version():
    from repro.objects.metatype import global_type_registry

    before = schema_version()
    global_type_registry().register_shim(
        "CompiledTierShimFixture", object()
    )
    assert schema_version() == before + 1


def test_bump_evicts_cached_artifacts():
    tier = global_compiled_tier()
    metatype = TierGadget.__metatype__
    info = metatype.trigger_by_name("Pair")
    assert tier.advancer_for(info, metatype) is not None
    assert tier.cached_count() > 0
    _define_stale_demo("evict")
    assert tier.cached_count() == 0  # version check dropped everything
    assert tier.advancer_for(info, metatype) is not None  # recompiles


def test_redefined_class_never_fires_stale_closure(tmp_path):
    _define_stale_demo("v1")
    db = Database.open(str(tmp_path / "stale"), engine="mm")
    try:
        cls_v1 = db.registry.find("StaleDemo").pyclass
        with db.transaction():
            h = db.pnew(cls_v1)
            ptr = h.ptr
            h.Watch()
        _FIRED.clear()
        with db.transaction():
            h = db.deref(ptr)
            h.post_event("Ping")  # compiled against v1
            # Mid-transaction redefinition: the schema version bumps, the
            # per-txn cache's pinned version goes stale, and the very next
            # posting must resolve the *new* trigger info.
            _define_stale_demo("v2")
            h.post_event("Ping")
        assert _FIRED == ["v1", "v2"]
        # And across transactions too.
        _FIRED.clear()
        with db.transaction():
            db.deref(ptr).post_event("Ping")
        assert _FIRED == ["v2"]
    finally:
        db.close()


def test_deactivation_purges_txn_cache(tmp_path):
    db = Database.open(str(tmp_path / "purge"), engine="mm")
    try:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            h.Low(1)  # once-only: fires, then deactivates mid-transaction
            h.Pair()
        _FIRED.clear()
        with db.transaction():
            h = db.deref(ptr)
            h.n = -5
            h.post_event("Bump")  # Low fires and self-deactivates
            h.post_event("Bump")  # its cached closure must be gone
            h.post_event("Tick")
        assert _FIRED.count("Low") == 1
        with db.transaction():
            names = [
                info.name
                for _, _ts, info in db.trigger_system.active_triggers(ptr)
            ]
        assert names == ["Pair"]
    finally:
        db.close()


@pytest.mark.parametrize("trigger_cc", ["2pl", "mvcc"])
def test_obs_tracing_keeps_the_compiled_tier(tmp_path, trigger_cc):
    """Tracing observes the code path that runs: the generated advance
    still serves the posting, and its mask evaluations and the kernel's
    advance record land inside the posting span."""
    db = Database.open(str(tmp_path / "traced"), engine="mm", trigger_cc=trigger_cc)
    try:
        with db.transaction():
            h = db.pnew(TierGadget)
            ptr = h.ptr
            h.Hot()
        stats = db.trigger_system.stats
        stats.reset()
        with obs.enabled(capacity=4096) as recorder:
            with db.transaction():
                db.deref(ptr).post_event("Tick")
        assert stats.compiled_hits == 1
        assert stats.compiled_fallbacks == 0
        records = recorder.records()
        (span,) = [r.span for r in records if r.kind == "post.begin"]
        inside = [r.kind for r in records if r.span == span]
        assert inside[0] == "post.begin" and inside[-1] == "post.end"
        assert inside.count("mask.eval") == 1
        assert inside.count("fsm.advance") == 1
        (mask,) = [r for r in records if r.kind == "mask.eval"]
        assert (mask.get("mask"), mask.get("outcome")) == ("hot", False)
        assert mask.get("phase") == "posting"
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The five judgments
# ---------------------------------------------------------------------------


def _single_trigger_class(name, **trigger_kwargs):
    kwargs = {"action": lambda self, ctx: None, "perpetual": True}
    kwargs.update(trigger_kwargs)
    expression = kwargs.pop("expression", "Go")
    events = kwargs.pop("events", ["Go"])
    masks = kwargs.pop("class_masks", {})
    return type(
        name,
        (Persistent,),
        {
            "__events__": events,
            "__masks__": masks,
            "__triggers__": [trigger("T", expression, **kwargs)],
        },
    )


def _codes_for(cls):
    metatype = cls.__metatype__
    return classify_trigger(metatype.trigger_infos[0], metatype).codes


def test_ode400_impure_mask():
    cls = _single_trigger_class(
        "Ode400Fixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
    )
    assert "ODE400" in _codes_for(cls)


def test_ode401_unresolvable_free_name():
    cls = _single_trigger_class(
        "Ode401Fixture",
        expression="Go & phantom",
        masks={"phantom": lambda self: _no_such_helper_anywhere(self)},  # noqa: F821
    )
    assert "ODE401" in _codes_for(cls)


def test_ode402_machine_too_large(monkeypatch):
    from repro.analysis import compilable

    monkeypatch.setattr(compilable, "MAX_FSM_STATES", 0)
    cls = _single_trigger_class("Ode402Fixture")
    codes = _codes_for(cls)
    assert codes == ("ODE402",)


def test_ode402_unroll_budget(monkeypatch):
    from repro.core import compiled

    monkeypatch.setattr(compiled, "UNROLL_BUDGET", 1)
    metatype = TierGadget.__metatype__
    verdict = classify_trigger(metatype.trigger_by_name("Hot"), metatype)
    assert "ODE402" in verdict.codes


def test_ode403_immediate_action_reenters():
    cls = _single_trigger_class(
        "Ode403Fixture",
        events=["Go", "Echo"],
        posts=("Echo",),
    )
    assert "ODE403" in _codes_for(cls)
    # Deferred coupling runs after the advance completes: exempt.
    deferred = _single_trigger_class(
        "Ode403Deferred",
        events=["Go", "Echo"],
        posts=("Echo",),
        coupling="end",
    )
    assert "ODE403" not in _codes_for(deferred)


def test_ode404_unknown_action_effects():
    cls = _single_trigger_class(
        "Ode404Fixture",
        action=eval("lambda self, ctx: None"),  # no retrievable source
    )
    assert "ODE404" in _codes_for(cls)


def test_every_judgment_falls_back_cleanly(tmp_path):
    """A non-compilable trigger must still post and fire via the interpreter."""
    hits = []
    cls = _single_trigger_class(
        "FallbackFixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
        action=lambda self, ctx, _hits=hits: _hits.append("fired"),
    )
    db = Database.open(str(tmp_path / "fallback"), engine="mm")
    try:
        stats = db.trigger_system.stats
        with db.transaction():
            h = db.pnew(cls)
            h.T()
            stats.reset()
            h.post_event("Go")
        assert hits == ["fired"]
        assert stats.compiled_fallbacks == 1
        assert stats.compiled_hits == 0
        info = cls.__metatype__.trigger_infos[0]
        codes = [d.code for d in global_compiled_tier().explain(info)]
        assert "ODE400" in codes
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Analysis surfaces
# ---------------------------------------------------------------------------


def test_analyze_classes_opt_in_pass():
    from repro.analysis import analyze_classes

    cls = _single_trigger_class(
        "SurfaceFixture",
        expression="Go & dirty",
        masks={"dirty": lambda self: setattr(self, "probe", 1) or True},
    )
    without = analyze_classes([cls])
    assert "ODE400" not in without.codes()
    with_pass = analyze_classes([cls], compilability=True)
    assert "ODE400" in with_pass.codes()


def test_ode205_is_pass_aware_for_ode4xx():
    from repro.analysis import analyze_classes

    cls = _single_trigger_class(
        "SuppressFixture", suppress=("ODE400",)
    )  # compilable trigger: the suppression is stale iff the pass runs
    without = analyze_classes([cls])
    assert not [
        d for d in without.by_code("ODE205") if "ODE400" in d.message
    ]
    with_pass = analyze_classes([cls], compilability=True)
    assert [d for d in with_pass.by_code("ODE205") if "ODE400" in d.message]


def test_check_triggers_and_metrics_surface(tmp_path):
    db = Database.open(str(tmp_path / "surface"), engine="mm")
    try:
        report = db.check_triggers([TierGadget], compilability=True)
        assert "ODE400" in report.codes()
        with db.transaction():
            h = db.pnew(TierGadget)
            h.Pair()
            h.post_event("Tick")
        snapshot = db.metrics.snapshot()
        assert snapshot["posting.compiled_hits"] >= 1
        assert "posting.compiled_fallbacks" in snapshot
    finally:
        db.close()


def test_transition_table_export():
    from repro.events.dfa import transition_table

    info = TierGadget.__metatype__.trigger_by_name("Hot")
    table = transition_table(info.fsm)
    assert len(table) == len(info.fsm)
    assert all(
        set(row) == {"state", "accept", "masks", "transitions"} for row in table
    )
    # The symbolic compile-time machine exports through the same helper.
    symbolic = transition_table(info.compiled.fsm)
    assert len(symbolic) == len(table)
