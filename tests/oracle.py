"""Reference evaluators: the notations' semantics, one row at a time.

Production code evaluates CFD/eCFD patterns per dictionary code and
runs the SD confidence DP over numpy vectors.  The functions here state
the same semantics directly — one ``Pattern.matches`` call per row, one
``Interval.contains`` call per pair — and are used only by the tests
that check the columnar paths against them.  They are deliberately
slow and simple; do not import them from ``src``.
"""

from __future__ import annotations

from repro.core.categorical.cfd import CFD
from repro.core.numerical.sd import CSD, SD
from repro.core.violation import ViolationSet
from repro.relation import Relation

# -- CFD / eCFD ----------------------------------------------------------


def cfd_matching_indices(dep: CFD, relation: Relation) -> list[int]:
    """Rows matching ``t_p`` on the LHS: ``Pattern.matches`` per row."""
    out = []
    for i in range(len(relation)):
        record = {a: relation.value_at(i, a) for a in dep.lhs}
        if dep.pattern.matches(record, dep.lhs):
            out.append(i)
    return out


def cfd_support(dep: CFD, relation: Relation) -> float:
    if len(relation) == 0:
        return 0.0
    return len(cfd_matching_indices(dep, relation)) / len(relation)


def cfd_violations(dep: CFD, relation: Relation) -> ViolationSet:
    """Single-tuple violations in row order, then equal-``X`` groups in
    first-occurrence order."""
    vs = ViolationSet()
    label = dep.label()
    matching = cfd_matching_indices(dep, relation)
    for i in matching:
        vs.extend(dep.single_violations(relation, i, label))
    groups: dict[tuple, list[int]] = {}
    for i in matching:
        groups.setdefault(relation.values_at(i, dep.lhs), []).append(i)
    for x_value, indices in groups.items():
        vs.extend(dep.group_violations(relation, x_value, indices, label))
    return vs


def cfd_holds(dep: CFD, relation: Relation) -> bool:
    groups: dict[tuple, tuple] = {}
    for i in cfd_matching_indices(dep, relation):
        for a in dep.rhs:
            if not dep.pattern.entry(a).matches(relation.value_at(i, a)):
                return False
        x = relation.values_at(i, dep.lhs)
        y = relation.values_at(i, dep.rhs)
        if groups.setdefault(x, y) != y:
            return False
    return True


# -- SD / CSD ------------------------------------------------------------


def sd_sorted_indices(dep: SD, relation: Relation) -> list[int]:
    """Rows with defined ``X`` and ``Y``, stably sorted on ``X``."""
    usable = [
        i
        for i in range(len(relation))
        if all(relation.value_at(i, a) is not None for a in dep.lhs)
        and relation.value_at(i, dep.rhs) is not None
    ]
    return sorted(usable, key=lambda i: relation.values_at(i, dep.lhs))


def sd_consecutive_gaps(
    dep: SD, relation: Relation
) -> list[tuple[int, int, float]]:
    order = sd_sorted_indices(dep, relation)
    return [
        (
            a,
            b,
            float(relation.value_at(b, dep.rhs))
            - float(relation.value_at(a, dep.rhs)),
        )
        for a, b in zip(order, order[1:], strict=False)
    ]


def sd_confidence(dep: SD, relation: Relation) -> float:
    """Longest X-ordered run whose consecutive gaps lie in ``g``, over n:
    the O(n²) DP, one ``Interval.contains`` call per pair."""
    order = sd_sorted_indices(dep, relation)
    n = len(order)
    if n == 0:
        return 1.0
    ys = [float(relation.value_at(i, dep.rhs)) for i in order]
    best = [1] * n
    for k in range(1, n):
        for m in range(k):
            if dep.gap.contains(ys[k] - ys[m]) and best[m] + 1 > best[k]:
                best[k] = best[m] + 1
    return max(best) / n


def csd_confidence(dep: CSD, relation: Relation) -> float:
    """Tuple-weighted mean of the oracle SD confidence per interval."""
    attr = dep.lhs[0]
    total = 0
    weighted = 0.0
    for iv in dep.intervals:
        sub = relation.take(
            [
                i
                for i in range(len(relation))
                if relation.value_at(i, attr) is not None
                and iv.contains(float(relation.value_at(i, attr)))
            ]
        )
        if len(sub) == 0:
            continue
        total += len(sub)
        weighted += sd_confidence(dep.sd, sub) * len(sub)
    return weighted / total if total else 1.0
