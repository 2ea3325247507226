"""The generated-code posting fast path (the ROADMAP's "compile tier").

The interpreter (:meth:`IntFsm.advancer`) pays, per active trigger per
posting, a fresh mask-evaluation closure, the linear transition search,
and one pseudo-int dictionary hop per mask.  For triggers the ODE4xx pass
(:mod:`repro.analysis.compilable`) proves COMPILABLE — pure masks, a
resolvable free-name environment, a machine small enough to specialize,
and no immediate action that re-enters posting mid-advance — all of that
can be burned into one generated Python function per trigger:

* the sparse transition dispatch becomes branchy ``if eventnum == k``
  code over the concrete event integers;
* the §5.4.5 pseudo-event quiesce walk is unrolled at compile time into a
  decision tree over mask outcomes, with the mask predicates called
  inline;
* because compiled masks are *proven pure*, an outcome already decided on
  the current path is reused rather than re-evaluated — the pseudo-step
  counter still advances exactly as the interpreter's would, so the
  ``posting.masks_evaluated_posting`` metric is preserved.

Artifacts are cached per ``TriggerInfo`` and keyed by a process-global
**schema version** (the edgedb ``edb/server/compiler`` artifact-cache
shape): any trigger add/remove (class (re)compilation, shim registration)
or strict-mode flip bumps the version and evicts every artifact, so a
stale closure can never fire for a redefined trigger.  Correctness never
depends on codegen — whenever the pass withholds its proof,
:meth:`CompiledTier.advancer_for` hands back the interpreter, which has
the same signature, and the posting kernel counts
``posting.compiled_fallbacks``.  Tracing runs the same code: the kernel
re-binds an artifact's mask globals to emitting wrappers
(:meth:`CompiledArtifact.bind`).
"""

from __future__ import annotations

import dataclasses
import threading
import types
from typing import TYPE_CHECKING, Callable, Optional

from repro.events.fsm import DEAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import IntFsm, TriggerInfo
    from repro.objects.metatype import Metatype

__all__ = [
    "CompiledArtifact",
    "CompiledTier",
    "PlanError",
    "UNROLL_BUDGET",
    "bump_schema_version",
    "generate_advance",
    "generate_advance_source",
    "global_compiled_tier",
    "last_bump_reason",
    "plan_unroll",
    "schema_version",
]

#: Cap on emitted decision-tree nodes (branches + leaves) when unrolling
#: one machine's quiesce cascades.  Real expression-compiled machines sit
#: far below this; blowing the budget is the ODE402 "too dense" judgment.
UNROLL_BUDGET = 256


class PlanError(Exception):
    """The machine cannot be statically specialized (ODE402 territory)."""


# ---------------------------------------------------------------------------
# Schema / trigger-index versioning
# ---------------------------------------------------------------------------

_VERSION_LOCK = threading.Lock()
_SCHEMA_VERSION = 0
_LAST_BUMP_REASON = ""


def schema_version() -> int:
    """The process-global trigger-schema version counter."""
    return _SCHEMA_VERSION


def last_bump_reason() -> str:
    return _LAST_BUMP_REASON


def bump_schema_version(reason: str = "") -> int:
    """Invalidate every compiled artifact (trigger set or mode changed).

    Called from the three places the trigger universe can shift under a
    running process: :func:`repro.core.declarations.process_active_class`
    (a class — and its triggers — was (re)compiled),
    :meth:`repro.objects.metatype.TypeRegistry.register_shim` (a run-time
    bridge trigger appeared), and
    :func:`repro.core.declarations.set_strict_analysis` (the analysis
    regime flipped).  Bumping is cheap; artifact caches re-validate
    lazily against the counter.
    """
    global _SCHEMA_VERSION, _LAST_BUMP_REASON
    with _VERSION_LOCK:
        _SCHEMA_VERSION += 1
        _LAST_BUMP_REASON = reason
        return _SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def charge(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise PlanError(
                "unrolled mask-cascade decision tree exceeds "
                f"{UNROLL_BUDGET} nodes"
            )


def _unroll(
    fsm: "IntFsm",
    mask_ids: dict[str, str],
    current: int,
    steps: int,
    seen: bool,
    fixed: dict[str, bool],
    visited: frozenset[int],
    indent: str,
    lines: list[str],
    budget: _Budget,
) -> None:
    """Emit the quiesce walk from *current* (mirrors ``quiesce_walk``).

    ``fixed`` pins mask outcomes already observed on this path: a compiled
    mask is proven pure, so within one posting instant it cannot change
    its mind — the generated code follows the pinned arm while still
    advancing the step counter the interpreter charges for the pseudo
    event.  ``visited`` holds the states this walk has entered: reaching
    one again is the instant's fixpoint, where the interpreter stops too.
    """
    while True:
        if current == DEAD or not fsm.states[current].masks:
            budget.charge()
            lines.append(f"{indent}return ({current}, True, {seen}, {steps})")
            return
        mask = fsm.states[current].masks[0]
        if mask in fixed:
            outcome = fixed[mask]
            nxt, consumed = fsm.move(current, fsm.pseudo_ints[(mask, outcome)])
            steps += 1
            if consumed:
                current = nxt
                seen = seen or (current != DEAD and fsm.states[current].accept)
            if not consumed or current in visited:
                budget.charge()
                lines.append(
                    f"{indent}return ({current}, True, {seen}, {steps})"
                )
                return
            visited = visited | {current}
            continue
        budget.charge()
        lines.append(f"{indent}if {mask_ids[mask]}(obj, params, event):")
        for outcome in (True, False):
            arm_indent = indent + "    "
            if not outcome:
                lines.append(f"{indent}else:")
            nxt, consumed = fsm.move(current, fsm.pseudo_ints[(mask, outcome)])
            arm_seen = seen or (
                consumed and nxt != DEAD and fsm.states[nxt].accept
            )
            if not consumed or nxt in visited:
                budget.charge()
                state = nxt if consumed else current
                lines.append(
                    f"{arm_indent}return ({state}, True, {arm_seen}, {steps + 1})"
                )
                continue
            _unroll(
                fsm,
                mask_ids,
                nxt,
                steps + 1,
                arm_seen,
                {**fixed, mask: outcome},
                visited | {nxt},
                arm_indent,
                lines,
                budget,
            )
        return


def generate_advance_source(
    fsm: "IntFsm", mask_ids: dict[str, str]
) -> str:
    """Generate the specialized ``_advance`` source for one machine.

    The function mirrors the interpreter (:meth:`IntFsm.advancer`) exactly
    — same returned ``(state, consumed, accepted, steps)`` quadruple, same
    anchored-death rule, same acceptance-of-visited-states semantics —
    with the transition search and quiesce loop resolved at compile time.
    Raises :class:`PlanError` when the decision tree blows the budget.
    """
    budget = _Budget(UNROLL_BUDGET)
    lines = ["def _advance(statenum, eventnum, obj, params, event):"]
    lines.append("    if statenum == -1:")
    lines.append("        return (-1, False, False, 0)")
    for state in fsm.states:
        lines.append(f"    if statenum == {state.statenum}:")
        for tr in state.transfunc:
            lines.append(f"        if eventnum == {tr.eventnum}:")
            nxt = tr.newstate
            seen = nxt != DEAD and fsm.states[nxt].accept
            _unroll(
                fsm, mask_ids, nxt, 0, seen, {}, frozenset((nxt,)),
                " " * 12, lines, budget,
            )
        # Event not in the sparse transition list: anchored machines die
        # on in-alphabet misses, everything else ignores the event.
        if fsm.anchored:
            lines.append("        if eventnum in _ALPHA:")
            lines.append("            return (-1, True, False, 0)")
        lines.append(f"        return ({state.statenum}, False, False, 0)")
    lines.append(
        "    raise IndexError('compiled advance: state %r out of range'"
        " % (statenum,))"
    )
    return "\n".join(lines) + "\n"


def plan_unroll(fsm: "IntFsm") -> int:
    """Dry-run the unroll, returning the emitted line count.

    The ODE4xx pass uses this to judge ODE402 without keeping the code;
    it is exactly the generator, so the judgment can never drift from
    what the tier can actually compile.
    """
    mask_ids = {
        name: f"_m{i}"
        for i, name in enumerate(
            sorted({m for s in fsm.states for m in s.masks})
        )
    }
    return len(generate_advance_source(fsm, mask_ids).splitlines())


@dataclasses.dataclass
class CompiledArtifact:
    """One trigger's generated advance function plus its provenance."""

    info: "TriggerInfo"
    advance: Callable[..., tuple]
    source: str
    version: int
    #: the module namespace the code runs in, and mask name -> its global
    namespace: dict = dataclasses.field(repr=False, default_factory=dict)
    mask_ids: dict = dataclasses.field(repr=False, default_factory=dict)

    def bind(self, masks) -> Callable[..., tuple]:
        """The same generated code with its mask globals re-bound to
        *masks* (e.g. emitting wrappers for tracing) — no second codegen."""
        namespace = dict(self.namespace)
        for name, ident in self.mask_ids.items():
            namespace[ident] = masks[name]
        advance = types.FunctionType(self.advance.__code__, namespace, "_advance")
        advance.rebind = self.bind
        return advance


def generate_advance(info: "TriggerInfo") -> CompiledArtifact:
    """Compile *info*'s machine into a :class:`CompiledArtifact`."""
    fsm = info.fsm
    used_masks = sorted({m for s in fsm.states for m in s.masks})
    mask_ids = {name: f"_m{i}" for i, name in enumerate(used_masks)}
    source = generate_advance_source(fsm, mask_ids)
    namespace: dict = {"_ALPHA": fsm.alphabet_ints}
    for name, ident in mask_ids.items():
        namespace[ident] = info.masks[name]
    code = compile(
        source,
        f"<ode-compiled:{info.defining_type}.{info.name}>",
        "exec",
    )
    exec(code, namespace)
    artifact = CompiledArtifact(
        info=info,
        advance=namespace["_advance"],
        source=source,
        version=schema_version(),
        namespace=namespace,
        mask_ids=mask_ids,
    )
    artifact.advance.rebind = artifact.bind
    return artifact


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------

_UNSET = object()


class CompiledTier:
    """Verdict + artifact cache gating the posting fast path.

    Lookups are id-keyed on the ``TriggerInfo`` (a strong reference is
    pinned so ids stay unique) and validated against the process schema
    version: the first lookup after any bump drops everything.  Negative
    verdicts are cached too — the ODE4xx classification runs once per
    trigger per schema version, not once per posting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = schema_version()
        self._artifacts: dict[int, Optional[CompiledArtifact]] = {}
        self._verdicts: dict[int, object] = {}
        self._pins: dict[int, "TriggerInfo"] = {}

    # -- invalidation ------------------------------------------------------

    def _maybe_evict(self) -> None:
        if self._version != _SCHEMA_VERSION:
            with self._lock:
                if self._version != _SCHEMA_VERSION:
                    self._artifacts.clear()
                    self._verdicts.clear()
                    self._pins.clear()
                    self._version = _SCHEMA_VERSION

    @property
    def version(self) -> int:
        """Current validated version (evicts first if the world moved)."""
        self._maybe_evict()
        return self._version

    def cached_count(self) -> int:
        self._maybe_evict()
        return len(self._artifacts)

    # -- lookup ------------------------------------------------------------

    def advancer_for(
        self, info: "TriggerInfo", metatype: Optional["Metatype"] = None
    ) -> Callable[..., tuple]:
        """The fastest proven advance for *info*: its generated code, or
        ``info.interpreter`` when the ODE4xx proof is withheld."""
        self._maybe_evict()
        key = id(info)
        artifact = self._artifacts.get(key, _UNSET)
        if artifact is _UNSET:
            with self._lock:
                artifact = self._artifacts.get(key, _UNSET)
                if artifact is _UNSET:
                    artifact = self._classify_and_compile(info, metatype)
                    self._pins[key] = info
                    self._artifacts[key] = artifact
        return info.interpreter if artifact is None else artifact.advance

    def artifact_for(self, info: "TriggerInfo") -> Optional[CompiledArtifact]:
        """The cached artifact (for tests and dump introspection)."""
        self._maybe_evict()
        artifact = self._artifacts.get(id(info))
        return artifact if isinstance(artifact, CompiledArtifact) else None

    def explain(self, info: "TriggerInfo") -> tuple:
        """The ODE4xx diagnostics naming why the proof was withheld
        (empty for compilable or never-classified triggers)."""
        self._maybe_evict()
        verdict = self._verdicts.get(id(info))
        return tuple(getattr(verdict, "diagnostics", ()))

    def _classify_and_compile(
        self, info: "TriggerInfo", metatype: Optional["Metatype"]
    ) -> Optional[CompiledArtifact]:
        try:
            from repro.analysis.compilable import classify_trigger

            verdict = classify_trigger(info, metatype)
            self._verdicts[id(info)] = verdict
            if not verdict.compilable:
                return None
            return generate_advance(info)
        except Exception:
            # Codegen and classification failures degrade to the
            # interpreter — the tier must never take posting down.
            return None


_GLOBAL_TIER = CompiledTier()


def global_compiled_tier() -> CompiledTier:
    """The artifact cache shared by every trigger system in the process
    (trigger infos are process-global, so their artifacts are too)."""
    return _GLOBAL_TIER
