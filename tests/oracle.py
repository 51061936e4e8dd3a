"""Reference evaluators: the notations' semantics, one row at a time.

Production code evaluates pairwise notations through pruned plan
kernels, evaluates CFD/eCFD patterns per dictionary code, runs the SD
confidence DP over numpy vectors, loads CSV column by column in one
pass and groups rows by dictionary codes.  The functions here state the
same semantics directly — every tuple pair asked of the notation's own
predicate, one ``Pattern.matches`` call per row, one
``Interval.contains`` call per pair, one coerced cell at a time, one
dict append per row — and are used only by the tests and benchmarks
that check the production paths against them.  They are deliberately
slow and simple; do not import them from ``src``.
"""

from __future__ import annotations

import csv
import io
import math

from repro.core.base import Dependency, PairwiseDependency
from repro.core.categorical.cfd import CFD
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.cd import CD
from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.ned import NED
from repro.core.heterogeneous.pac import PAC
from repro.core.numerical.dc import ALPHA, BETA, DC
from repro.core.numerical.sd import CSD, SD
from repro.core.violation import Violation, ViolationSet
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime.errors import InputError

# -- pairwise notations ----------------------------------------------------


def pair_scan(
    dep: PairwiseDependency, relation: Relation, restrict=None
) -> ViolationSet:
    """``pair_violation`` asked of every pair (of every pair touching
    ``restrict``, when given)."""
    vs = ViolationSet()
    label = dep.label()
    for i, j in relation.tuple_pairs():
        if restrict is not None and i not in restrict and j not in restrict:
            continue
        reason = dep.pair_violation(relation, i, j)
        if reason is not None:
            vs.add(Violation(label, (i, j), reason))
    return vs


def dc_scan(dep: DC, relation: Relation) -> ViolationSet:
    """Every row (single-tuple DCs) or every ordered pair ``α != β``,
    row-major; a pair is reported at its first denied orientation."""
    vs = ViolationSet()
    label = dep.label()
    n = len(relation)
    if dep.is_single_tuple:
        var = dep._variables[0]
        for i in range(n):
            if dep._assignment_denied(relation, {var: i}):
                vs.add(Violation(label, (i,), "tuple satisfies all atoms"))
        return vs
    for i in range(n):
        for j in range(n):
            if i != j and dep._assignment_denied(
                relation, {ALPHA: i, BETA: j}
            ):
                vs.add(Violation(
                    label, (i, j), f"(tα=t{i}, tβ=t{j}) satisfies all atoms"
                ))
    return vs


def pac_pair_counts(dep: PAC, relation: Relation) -> tuple[int, int]:
    """(#pairs within Δ on X, #of those also within ε on Y)."""
    close = good = 0
    for i, j in relation.tuple_pairs():
        if dep._lhs_close(relation, i, j):
            close += 1
            good += dep._rhs_close(relation, i, j)
    return close, good


def pac_scan(dep: PAC, relation: Relation) -> ViolationSet:
    """The pairs within Δ on ``X`` but beyond ε on ``Y``, row-major."""
    label = dep.label()
    return ViolationSet(
        Violation(label, (i, j), "within Δ on X but beyond ε on Y")
        for i, j in relation.tuple_pairs()
        if dep._lhs_close(relation, i, j)
        and not dep._rhs_close(relation, i, j)
    )


def violations(dep: Dependency, relation: Relation) -> ViolationSet:
    """The definitional scan of a pairwise notation (DC, PAC or any
    ``pair_violation`` notation); other notations' own ``violations``."""
    if isinstance(dep, DC):
        return dc_scan(dep, relation)
    if isinstance(dep, PAC):
        return pac_scan(dep, relation)
    if isinstance(dep, CFD):
        return cfd_violations(dep, relation)
    if isinstance(dep, PairwiseDependency):
        return pair_scan(dep, relation)
    return dep.violations(relation)


def comparable(dep: Dependency, vs) -> list:
    """A violation list as compared with the oracle's: ``(tuples,
    reason)`` in order.  FDs report group by group with a group-level
    reason, so for them only the sorted violating tuples count."""
    if isinstance(dep, FD):
        return sorted(v.tuples for v in vs)
    return [(v.tuples, v.reason) for v in vs]


def holds(dep: Dependency, relation: Relation) -> bool:
    if isinstance(dep, PAC):
        close, good = pac_pair_counts(dep, relation)
        return (good / close if close else 1.0) >= dep.threshold
    return not violations(dep, relation)


def md_matches(dep: MD, relation: Relation) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i, j in relation.tuple_pairs()
        if dep.similar_on_lhs(relation, i, j)
    ]


def ned_support_and_confidence(
    dep: NED, relation: Relation
) -> tuple[int, float]:
    agree = good = 0
    for i, j in relation.tuple_pairs():
        if dep.lhs_agrees(relation, i, j):
            agree += 1
            good += dep.rhs_agrees(relation, i, j)
    return agree, (good / agree if agree else 1.0)


def cd_confidence(dep: CD, relation: Relation) -> float:
    agree = good = 0
    for i, j in relation.tuple_pairs():
        if dep._lhs_agrees(relation, i, j):
            agree += 1
            good += dep.rhs.similar(relation, i, j, dep.registry)
    return good / agree if agree else 1.0


def guard_measure(measure, relation: Relation):
    """The oracle's value of a bound measure the plan computes over
    ``guard_pairs`` (``md.matches``, ``pac.pair_counts``, ...)."""
    reference = {
        "matches": md_matches,
        "support_and_confidence": ned_support_and_confidence,
        "confidence": cd_confidence,
        "pair_counts": pac_pair_counts,
    }[measure.__name__]
    return reference(measure.__self__, relation)


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


# -- CSV loading -----------------------------------------------------------


def coerce(text, dtype, *, allow_nonfinite=False, row=None, column=None,
           source=None):
    """One stripped CSV cell: ``""`` is null, numerical cells parse with
    ``float()`` and become ``int`` where integral, non-finite numbers
    raise unless allowed (then they are null)."""
    if text == "":
        return None
    if dtype is not AttributeType.NUMERICAL:
        return text
    try:
        f = float(text)
    except ValueError as exc:
        raise InputError(
            f"non-numeric value {text!r} in numerical column",
            row=row, column=column, source=source,
        ) from exc
    if not math.isfinite(f):
        if allow_nonfinite:
            return None
        raise InputError(
            f"non-finite value {text!r} in numerical column "
            "(pass allow_nonfinite=True to map it to null)",
            row=row, column=column, source=source,
        )
    return int(f) if f.is_integer() else f


def read_csv_text(text, schema=None, *, delimiter=",",
                  allow_nonfinite=False):
    return _read(io.StringIO(text), schema, delimiter, allow_nonfinite, None)


def read_csv(path, schema=None, *, delimiter=",", allow_nonfinite=False):
    with open(path, newline="", encoding="utf-8") as f:
        return _read(f, schema, delimiter, allow_nonfinite, str(path))


def _read(f, schema, delimiter, allow_nonfinite, source):
    """Row at a time: width check, then each cell coerced left to right,
    errors located by the reader's 1-based line number."""
    reader = csv.reader(f, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("CSV input has no header row", source=source) from None
    header = [h.strip() for h in header]
    if schema is None:
        schema = Schema(header)
    elif not isinstance(schema, Schema):
        schema = Schema(schema)
    if list(schema.names()) != header:
        raise InputError(
            f"CSV header {header} does not match schema "
            f"{list(schema.names())}",
            row=1, source=source,
        )
    rows = []
    for raw in reader:
        if not raw:
            continue
        line = reader.line_num
        if len(raw) != len(schema):
            raise InputError(
                f"CSV row of width {len(raw)} does not match schema "
                f"of width {len(schema)}: {raw!r}",
                row=line, source=source,
            )
        rows.append(tuple(
            coerce(cell.strip(), a.dtype, allow_nonfinite=allow_nonfinite,
                   row=line, column=a.name, source=source)
            for cell, a in zip(raw, schema, strict=True)
        ))
    return Relation.from_rows(schema, rows)


def detect_schema(path, numerical, text):
    """An untyped read, then a column is numerical iff it has a non-null
    cell and every non-null cell passes ``float(str(v))``."""
    raw = read_csv(path)

    def is_number(v):
        try:
            float(str(v))
        except (TypeError, ValueError):
            return False
        return True

    attrs = []
    for name in raw.schema.names():
        if name in numerical:
            dtype = AttributeType.NUMERICAL
        elif name in text:
            dtype = AttributeType.TEXT
        else:
            column = [v for v in raw.column(name) if v is not None]
            dtype = (
                AttributeType.NUMERICAL
                if column and all(is_number(v) for v in column)
                else AttributeType.TEXT
            )
        attrs.append(Attribute(name, dtype))
    return Schema(attrs)


def load_relation(path, numerical=(), text=()):
    """Two passes: :func:`detect_schema`, then a typed :func:`read_csv`."""
    return read_csv(path, detect_schema(path, set(numerical), set(text)))


# -- dictionary encoding ---------------------------------------------------


def column_groups(column):
    """Member rows per distinct value (``dict`` equality), ascending,
    in first-occurrence order."""
    groups = {}
    for i, v in enumerate(column):
        groups.setdefault(v, []).append(i)
    return list(groups.values())


def column_codes(column):
    """``(codes, codebook)``: one ``dict.setdefault`` per row, codes
    dense in first-occurrence order."""
    codebook = {}
    codes = [codebook.setdefault(v, len(codebook)) for v in column]
    return codes, codebook


def column_floats(column):
    """The float64 projection of a numeric-safe column, one ``float()``
    per cell, ``NaN`` for ``None``."""
    return [math.nan if v is None else float(v) for v in column]


def column_flags(column):
    """``(self_unequal, numeric_safe)`` one distinct value at a time: some
    value is unequal to itself; every non-``None`` value is a bool, int
    or float and every int (not bool) lies within 2**53."""
    self_unequal, numeric_safe = False, True
    for v in dict.fromkeys(column):
        try:
            if v != v:
                self_unequal = True
        except Exception:
            self_unequal = True
        if v is None:
            continue
        if not isinstance(v, (bool, int, float)):
            numeric_safe = False
        elif isinstance(v, int) and not isinstance(v, bool) and (
            abs(v) > 2**53
        ):
            numeric_safe = False
    return self_unequal, numeric_safe


def relation_state(relation):
    """The snapshot state of ``relation``, every column dictionary-encoded
    afresh (``{"raw": ...}`` for a column with an unhashable cell)."""
    columns = []
    for name in relation.schema.names():
        column = relation.column(name)
        try:
            codes, codebook = column_codes(column)
        except TypeError:
            columns.append({"raw": list(column)})
            continue
        columns.append({"values": list(codebook), "codes": codes})
    return {
        "version": 1,
        "n": len(relation),
        "schema": [{"name": a.name, "type": a.dtype.value}
                   for a in relation.schema],
        "columns": columns,
    }


class NaiveRelation(Relation):
    """A relation whose grouping primitives hash value tuples, one dict
    append per row, instead of grouping dictionary codes.

    ``group_by``, ``_grouped_indices`` (hence partitions and the
    partition cache), ``distinct_count`` and ``project`` are overridden;
    everything else is inherited, so any engine run over a
    ``NaiveRelation`` exercises the value-tuple semantics end to end.
    """

    __slots__ = ()

    @classmethod
    def of(cls, relation: Relation) -> "NaiveRelation":
        return cls._from_trusted(relation.schema, relation._columns)

    def _keys(self, attributes):
        cols = [self.column(a) for a in attributes]
        if not cols:
            return [()] * len(self)
        return list(zip(*cols, strict=True))

    def group_by(self, attributes):
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(self._keys(attributes)):
            groups.setdefault(key, []).append(i)
        return groups

    def _grouped_indices(self, attributes, min_size=1):
        return [
            g for g in self.group_by(attributes).values() if len(g) >= min_size
        ]

    def distinct_count(self, attributes):
        return len(set(self._keys(attributes)))

    def project(self, attributes):
        rows = list(dict.fromkeys(self._keys(attributes)))
        return Relation.from_rows(self.schema.project(attributes), rows)
