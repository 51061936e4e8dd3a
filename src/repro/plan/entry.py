"""Notation-facing plan entry points: caches, verify closures, routing.

The kernels (:mod:`repro.plan.kernels`, :mod:`repro.plan.kernels_vec`)
are engine-neutral — they see an immutable
:class:`~repro.plan.slabs.ExecutionContext` and bare row indices, never
a dependency or a live substrate handle.  This module is the seam
between the notations and that engine:

* :func:`plan_for` / :func:`guard_plan_for` — per-dependency compiled
  plan caches (compile → simplify, instance-cached on the dependency);
* :func:`build_verify` — the three verify-closure shapes ("pair",
  "denial", "guard") that re-check candidates with the notation's own
  definitional predicate;
* :func:`pairwise_violations` / :func:`denial_violations` /
  :func:`guard_pairs` — the calls the detection, incremental and
  discovery engines make, each one serial pass of the compiled plan
  over the snapshot's execution context.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .ir import Plan
from .kernels import execute_pairs, execute_rows
from .slabs import context_for

_Verify = Callable[[int, int], "tuple[Any, Any] | None"]


def plan_for(dep: Any) -> Plan:
    """The compiled, simplified plan of a dependency (instance-cached).

    Compilation lowers the notation; the static simplifier then rewrites
    the plan into a provably equivalent smaller one (dead clauses
    dropped, redundant atoms removed — see
    :func:`repro.analysis.simplify.simplify_plan`).
    """
    plan = getattr(dep, "_repro_plan", None)
    if plan is None or plan.source is not dep:
        from ..analysis.simplify import simplify_plan
        from .compile import compile_dependency

        plan = simplify_plan(compile_dependency(dep))
        try:
            dep._repro_plan = plan
        except (AttributeError, TypeError):
            pass
    return plan


def guard_plan_for(dep: Any) -> Plan:
    """The compiled guard (LHS) plan of a dependency (instance-cached)."""
    plan = getattr(dep, "_repro_guard_plan", None)
    if plan is None or plan.source is not dep:
        from .compile import compile_guards

        plan = compile_guards(dep)
        try:
            dep._repro_guard_plan = plan
        except (AttributeError, TypeError):
            pass
    return plan


def build_verify(
    mode: str, dep: Any, source: Any, extra: Any = None
) -> _Verify:
    """The verify closure for one execution mode, bound to ``source``.

    The notation's own definitional predicate stays the single source
    of truth for what a violation/match *is*; the closure returns the
    ``(sort_key, payload)`` hit the executor orders results by.
    """
    if mode == "pair":
        from ..core.violation import Violation

        label = dep.label()

        def verify_pairwise(p: int, q: int) -> "tuple[Any, Any] | None":
            reason = dep.pair_violation(source, p, q)
            if reason is None:
                return None
            return ((p, q), Violation(label, (p, q), reason))

        return verify_pairwise
    if mode == "denial":
        from ..core.numerical.dc import ALPHA, BETA
        from ..core.violation import Violation

        label = dep.label()

        def verify_denial(p: int, q: int) -> "tuple[Any, Any] | None":
            # The legacy ordered scan emits a pair at its first denied
            # (α, β) assignment in row-major order — sort by that key.
            for a, b in ((p, q), (q, p)):
                if dep._assignment_denied(source, {ALPHA: a, BETA: b}):
                    return (
                        (a, b),
                        Violation(
                            label,
                            (p, q),
                            f"(tα=t{a}, tβ=t{b}) satisfies all atoms",
                        ),
                    )
            return None

        return verify_denial
    if mode == "guard":

        def verify_guard(p: int, q: int) -> "tuple[Any, Any] | None":
            if extra(source, p, q):
                return ((p, q), (p, q))
            return None

        return verify_guard
    raise ValueError(f"unknown verify mode {mode!r}")


def pairwise_violations(
    dep: Any,
    source: Any,
    *,
    restrict: "set[int] | None" = None,
    first_only: bool = False,
) -> list[Any]:
    """Violations of a pairwise notation via its compiled plan.

    ``pair_violation`` stays the single source of truth for what a
    violation *is* (and its reason text); the plan only decides which
    pairs are worth asking about.
    """
    plan = plan_for(dep)
    verify = build_verify("pair", dep, source)
    return execute_pairs(
        plan, context_for(source), verify, restrict=restrict,
        first_only=first_only,
    )


def denial_violations(
    dep: Any,
    source: Any,
    *,
    restrict: "set[int] | None" = None,
    first_only: bool = False,
) -> list[Any]:
    """Violations of a DC via its compiled plan (ordered semantics).

    Matches the legacy ordered scan exactly: per unordered pair the
    (α, β) orientation reported is the first denied one in row-major
    order.
    """
    from ..core.violation import Violation

    plan = plan_for(dep)
    label = dep.label()
    if plan.arity == 1:
        var = dep._variables[0]

        def verify_row(r: int) -> "tuple[Any, Any] | None":
            if dep._assignment_denied(source, {var: r}):
                return (r, Violation(label, (r,), "tuple satisfies all atoms"))
            return None

        return execute_rows(
            plan, context_for(source), verify_row, restrict=restrict,
            first_only=first_only,
        )
    verify = build_verify("denial", dep, source)
    return execute_pairs(
        plan, context_for(source), verify, restrict=restrict,
        first_only=first_only,
    )


def guard_pairs(
    dep: Any,
    source: Any,
    verify_pair: Callable[..., bool],
) -> list[tuple[int, int]]:
    """All pairs selected by a notation's LHS (its guard atoms).

    Used for match/support/confidence measures (MD.matches, NED
    support, CD confidence, PAC pair counts): the guard plan prunes,
    ``verify_pair`` is the definitional LHS test.
    """
    plan = guard_plan_for(dep)
    verify = build_verify("guard", dep, source, verify_pair)
    return execute_pairs(plan, context_for(source), verify)
