"""Reading and writing relations (CSV and inline literals).

Kept deliberately small: the library's data lives either in the paper's
literal tables (:mod:`repro.datasets.paper`) or in generated workloads,
but downstream users need CSV round-tripping to run the tooling on their
own data.

Malformed input raises :class:`~repro.runtime.errors.InputError` (a
``ValueError`` subclass) carrying the offending 1-based line number and
column name, so a bad cell in row 40k of a wide file is locatable
without bisecting the input.  Non-finite numbers (``nan``, ``inf``)
are rejected by default — silently admitting them would poison every
distance-based metric and partition downstream — with an explicit
``allow_nonfinite=True`` opt-out that maps them to nulls.

Reading is one ``csv.reader`` pass (:func:`_rows`) followed by a
column-at-a-time gather and coercion (:func:`_build`): numbers
are parsed with ``float()`` per column and checked for finiteness and
integrality with numpy, so each cell ends up exactly what the per-cell
:func:`_coerce` makes of it.  Only malformed input is read a second
time, row by row, to raise the error a row-at-a-time reader meets first.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from collections.abc import Collection, Iterable, Iterator, Sequence
from typing import NoReturn, TextIO

import numpy as _np

from ..runtime.errors import InputError
from .relation import Relation, Value
from .schema import Attribute, AttributeType, Schema

#: Integral floats below this magnitude convert exactly through int64.
_INT64_BOUND = 2.0**63


def _coerce(
    text: str,
    dtype: AttributeType,
    *,
    allow_nonfinite: bool = False,
    row: int | None = None,
    column: str | None = None,
    source: str | None = None,
) -> Value:
    if text == "":
        return None
    if dtype is AttributeType.NUMERICAL:
        try:
            f = float(text)
        except ValueError as exc:
            raise InputError(
                f"non-numeric value {text!r} in numerical column",
                row=row,
                column=column,
                source=source,
            ) from exc
        if not math.isfinite(f):
            if allow_nonfinite:
                return None
            raise InputError(
                f"non-finite value {text!r} in numerical column "
                "(pass allow_nonfinite=True to map it to null)",
                row=row,
                column=column,
                source=source,
            )
        return int(f) if f.is_integer() else f
    return text


def read_csv(
    path: str | Path,
    schema: Schema | Sequence[Attribute | str] | None = None,
    *,
    delimiter: str = ",",
    allow_nonfinite: bool = False,
) -> Relation:
    """Load a relation from a CSV file with a header row.

    If ``schema`` is omitted, every column is treated as categorical; the
    header order must match the schema order when one is given.  NaN and
    infinite values in numerical columns are rejected with an
    :class:`~repro.runtime.errors.InputError` unless
    ``allow_nonfinite=True``, which maps them to nulls.
    """
    with _open(path) as f:
        return _read(f, schema, delimiter, allow_nonfinite, source=str(path))


def read_csv_text(
    text: str,
    schema: Schema | Sequence[Attribute | str] | None = None,
    *,
    delimiter: str = ",",
    allow_nonfinite: bool = False,
) -> Relation:
    """Load a relation from CSV text (header row required)."""
    return _read(io.StringIO(text), schema, delimiter, allow_nonfinite)


def _infer_schema(
    path: str | Path,
    numerical: Collection[str] = (),
    text: Collection[str] = (),
) -> Schema:
    """The column types of a CSV file with a header row, from one pass
    over every cell and no coercion (see :func:`_infer`).

    A column named in ``numerical`` or ``text`` gets that type.
    """
    with _open(path) as f:
        header, rows = _rows(f, None, ",", False, str(path))
    names = list(header.names())
    return Schema(
        Attribute(name, _infer(cells, dtype)[0])
        for name, dtype, cells in zip(
            names,
            _overrides(names, numerical, text),
            _columns(rows, len(names)),
            strict=True,
        )
    )


def _read_csv_inferred(
    path: str | Path,
    numerical: Collection[str] = (),
    text: Collection[str] = (),
) -> Relation:
    """:func:`read_csv` under the schema :func:`_infer_schema` gives,
    inferred from the same single pass that coerces the cells."""
    source = str(path)
    with _open(path) as f:
        header, rows = _rows(f, None, ",", False, source)
        names = list(header.names())
        dtypes, columns = _build(
            rows, _overrides(names, numerical, text), False
        )
        schema = Schema(
            Attribute(name, dtype)
            for name, dtype in zip(names, dtypes, strict=True)
        )
        if columns is None:
            _raise_first_error(f, schema, ",", False, source)
    return Relation(schema, columns)


def _overrides(
    names: Sequence[str], numerical: Collection[str], text: Collection[str]
) -> list[AttributeType | None]:
    """Per-column type overrides; ``None`` leaves a column to inference."""
    return [
        AttributeType.NUMERICAL if name in numerical
        else AttributeType.TEXT if name in text
        else None
        for name in names
    ]


@contextmanager
def _open(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened for :mod:`csv`.  A pipe is read into memory first,
    so that :func:`_raise_first_error` can seek back to its start."""
    with open(path, newline="", encoding="utf-8") as f:
        yield f if f.seekable() else io.StringIO(f.read(), newline="")


def _read(
    f: TextIO,
    schema: Schema | Sequence[Attribute | str] | None,
    delimiter: str,
    allow_nonfinite: bool = False,
    source: str | None = None,
) -> Relation:
    schema, rows = _rows(f, schema, delimiter, allow_nonfinite, source)
    __, columns = _build(rows, [a.dtype for a in schema], allow_nonfinite)
    if columns is None:
        _raise_first_error(f, schema, delimiter, allow_nonfinite, source)
    return Relation(schema, columns)


def _rows(
    f: TextIO,
    schema: Schema | Sequence[Attribute | str] | None,
    delimiter: str,
    allow_nonfinite: bool,
    source: str | None,
) -> tuple[Schema, list[list[str]]]:
    """One ``csv.reader`` pass: the schema checked against the header,
    and the non-blank raw rows.

    ``schema=None`` reads every column as categorical.  A row whose
    width differs from the header's, or a ``csv.Error``, raises the
    first error of the input in row order (see
    :func:`_raise_first_error`).
    """
    reader = csv.reader(f, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(
            "CSV input has no header row", source=source
        ) from None
    header = [h.strip() for h in header]
    if schema is None:
        schema = Schema(header)
    elif not isinstance(schema, Schema):
        schema = Schema(schema)
    if list(schema.names()) != header:
        raise InputError(
            f"CSV header {header} does not match schema "
            f"{list(schema.names())}",
            row=1,
            source=source,
        )
    try:
        rows = list(filter(None, reader))
    except csv.Error:  # a bad cell on an earlier row is reported first
        _raise_first_error(f, schema, delimiter, allow_nonfinite, source)
    if rows and set(map(len, rows)) != {len(header)}:
        _raise_first_error(f, schema, delimiter, allow_nonfinite, source)
    return schema, rows


def _build(
    rows: list[list[str]],
    dtypes: Sequence[AttributeType | None],
    allow_nonfinite: bool,
) -> tuple[list[AttributeType], list[tuple[Value, ...]] | None]:
    """Gather ``rows`` column by column and coerce each column.

    A ``None`` dtype is inferred (see :func:`_infer`).  Returns the
    column types and the coerced columns,
    or ``None`` for the columns when a numerical cell does not parse or
    is non-finite without ``allow_nonfinite``.  Cells equal what
    :func:`_coerce` makes of each stripped cell.
    """
    types: list[AttributeType] = []
    columns: list[tuple[Value, ...]] | None = []
    for cells, dtype in zip(_columns(rows, len(dtypes)), dtypes, strict=True):
        dtype, floats = _infer(cells, dtype)
        types.append(dtype)
        if columns is None:
            continue  # an earlier column failed: only infer the rest
        if dtype is not AttributeType.NUMERICAL:
            columns.append(
                cells if "" not in cells else tuple(c or None for c in cells)
            )
            continue
        column = (
            None if floats is None
            else _numbers(cells, floats, allow_nonfinite)
        )
        if column is None:
            columns = None
        else:
            columns.append(column)
    return types, columns


def _columns(rows: list[list[str]], width: int) -> Iterator[tuple[str, ...]]:
    """Each column's stripped cells.

    One ``itemgetter`` gather per column: on 10**5 rows it is about
    twice as fast as one ``zip(*rows)`` transpose.
    """
    for j in range(width):
        yield tuple(map(str.strip, map(itemgetter(j), rows)))


def _infer(
    cells: tuple[str, ...], dtype: AttributeType | None
) -> tuple[AttributeType, list[float] | None]:
    """A column's type and the :func:`_floats` of its cells (``None``
    for a text column, which is never parsed).

    A ``None`` dtype is inferred: numerical iff the column has a
    non-empty cell and every non-empty cell parses with ``float()``,
    text otherwise.
    """
    if dtype is AttributeType.TEXT:
        return dtype, None
    floats = _floats(cells)
    if dtype is None:
        dtype = AttributeType.NUMERICAL if floats else AttributeType.TEXT
    return dtype, floats


def _floats(cells: Iterable[str]) -> list[float] | None:
    """``float()`` of every non-empty cell, or ``None`` if one fails.

    The list is empty (falsy, like ``None``) when every cell is empty:
    truthiness is exactly "infer this column as numerical".
    """
    try:
        return list(map(float, filter(None, cells)))
    except ValueError:
        return None


def _numbers(
    cells: tuple[str, ...], floats: list[float], allow_nonfinite: bool
) -> tuple[Value, ...] | None:
    """A numerical column from its cells and the ``float()`` of the
    non-empty ones: ``None`` for empty cells, ``int`` where integral.

    Returns ``None`` when a value is non-finite and not allowed.
    """
    arr = _np.array(floats, dtype=_np.float64)
    finite = _np.isfinite(arr)
    if not allow_nonfinite and not finite.all():
        return None
    values: list[Value]
    if (arr == _np.trunc(arr)).all() and (_np.abs(arr) < _INT64_BOUND).all():
        values = arr.astype(_np.int64).tolist()
    else:
        values = [int(f) if f.is_integer() else f for f in floats]
        if not finite.all():
            for i in _np.flatnonzero(~finite).tolist():
                values[i] = None
    if len(values) == len(cells):
        return tuple(values)
    present = iter(values)
    return tuple(next(present) if c else None for c in cells)


def _raise_first_error(
    f: TextIO,
    schema: Schema,
    delimiter: str,
    allow_nonfinite: bool,
    source: str | None,
) -> NoReturn:
    """Re-read ``f`` row by row and raise its first malformed row or cell
    (or the reader's own ``csv.Error``).

    The columnar pass only learns *that* the input is malformed; this
    rescan finds the error a row-at-a-time reader meets first — width
    before cells, cells left to right — with the reader's 1-based line
    number, which counts the physical lines of quoted multi-line cells.
    """
    f.seek(0)
    reader = csv.reader(f, delimiter=delimiter)
    next(reader)  # the header, already checked
    dtypes = [a.dtype for a in schema]
    names = list(schema.names())
    for raw in reader:
        if not raw:
            continue
        line = reader.line_num  # 1-based; header is line 1
        if len(raw) != len(schema):
            raise InputError(
                f"CSV row of width {len(raw)} does not match schema "
                f"of width {len(schema)}: {raw!r}",
                row=line,
                source=source,
            )
        for cell, dtype, name in zip(raw, dtypes, names, strict=True):
            _coerce(
                cell.strip(),
                dtype,
                allow_nonfinite=allow_nonfinite,
                row=line,
                column=name,
                source=source,
            )
    raise RuntimeError("the columnar CSV pass reported an error the rescan "
                       "did not find")


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation to CSV with a header row; ``None`` becomes empty."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(relation.schema.names())
        for row in relation.rows():
            writer.writerow(["" if v is None else v for v in row])


def to_csv_text(relation: Relation) -> str:
    """Render a relation as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(relation.schema.names())
    for row in relation.rows():
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()
