"""Reference evaluators: the notations' semantics, one row at a time.

Production code evaluates CFD/eCFD patterns per dictionary code, runs
the SD confidence DP over numpy vectors, loads CSV column by column in
one pass and derives dictionary groups from an argsort.  The functions
here state the same semantics directly — one ``Pattern.matches`` call
per row, one ``Interval.contains`` call per pair, one coerced cell at a
time, one dict append per row — and are used only by the tests that
check the columnar paths against them.  They are deliberately slow and
simple; do not import them from ``src``.
"""

from __future__ import annotations

import csv
import io
import math

from repro.core.categorical.cfd import CFD
from repro.core.numerical.sd import CSD, SD
from repro.core.violation import ViolationSet
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.runtime.errors import InputError

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
