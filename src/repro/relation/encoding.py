"""Dictionary encoding: the columnar integer fast path of the substrate.

Every discovery algorithm in the family tree ultimately reduces to a
handful of primitives over the :class:`~repro.relation.relation.Relation`
column-store — grouping equal ``X``-values, counting distinct values,
intersecting partitions, diffing tuple pairs.  Run over Python *value
tuples*, those primitives pay interpreter overhead (attribute
resolution, tuple allocation, generic ``__eq__``) per cell.

This module adds a lazily built, cached **per-column codebook** that
maps each column to a compact integer vector:

* equal values (under Python ``dict`` equality semantics, exactly the
  semantics a value-tuple ``group_by`` would use) share one code;
* codes are dense ``0..card-1`` integers assigned in first-occurrence
  order, so single-column code order *is* first-occurrence order;
* attribute sets get a **combined-key encoding** — a radix (mixed-base)
  combination of the per-column codes, re-densified on overflow — so a
  multi-attribute group key is one machine integer instead of a tuple.

Grouping is ``np.unique`` + a stable argsort over the combined codes,
which is cheaper than hashing value tuples.  It is the only grouping
path of the substrate.

Parity contract (enforced by ``tests/test_encoding_parity.py`` against
the value-tuple reference in ``tests/oracle.py``): every primitive
returns results *equal* to plain dict grouping over value tuples —
group keys are decoded from the first-occurrence row, so even the key
tuples match a dict's insertion behaviour.

Thread-safety: encodings are built lazily and cached on the (immutable)
relation; concurrent builds are idempotent, so races waste work but
cannot corrupt results.
"""

from __future__ import annotations

from itertools import count, islice, pairwise
from collections.abc import Sequence
from typing import Any

import numpy as _np

Value = Any

#: Largest magnitude an intermediate radix code may reach before the
#: combined vector is re-densified (int64 headroom).
_MAX_RADIX = 1 << 62

#: Integers beyond 2**53 lose precision as floats; columns containing
#: them are not safe for the float-matrix comparison fast paths.
_FLOAT_SAFE_INT = 1 << 53

#: Version stamp of the serialized-relation state format below.
STATE_VERSION = 1


def relation_to_state(relation: Any) -> dict[str, Any]:
    """Serialize a relation as a JSON-safe, dictionary-encoded state.

    The snapshot format of the server durability layer: schema (names +
    declared types) plus one ``{"values", "codes"}`` pair per column —
    the distinct cell values in first-occurrence order and each row's
    index into them, i.e. exactly the dictionary encoding the substrate
    builds, so repeated values serialize once.  A column holding
    unhashable cells (which the encoded substrate cannot index either)
    falls back to a raw ``{"raw": [...]}`` value list.

    Cells must be JSON-representable (the server only ever holds values
    that arrived as JSON); non-finite floats round-trip through the
    encoder's ``NaN``/``Infinity`` extension.
    """
    schema = [
        {"name": a.name, "type": a.dtype.value} for a in relation.schema
    ]
    columns: list[dict[str, Any]] = []
    for column in relation._columns:
        codebook: dict[Value, int] = {}
        try:
            codes = _encode(column, codebook)
        except TypeError:  # unhashable cell: store the column verbatim
            columns.append({"raw": list(column)})
            continue
        columns.append({"values": list(codebook), "codes": codes.tolist()})
    return {
        "version": STATE_VERSION,
        "n": len(relation),
        "schema": schema,
        "columns": columns,
    }


def relation_from_state(state: dict[str, Any]) -> Any:
    """Rebuild a relation from :func:`relation_to_state` output.

    Raises :class:`ValueError` on version or shape mismatches — the
    recovery path treats that as a corrupt snapshot, not a crash.
    """
    from .relation import Relation
    from .schema import Attribute, AttributeType, Schema

    version = state.get("version")
    if version != STATE_VERSION:
        raise ValueError(
            f"unsupported relation state version {version!r} "
            f"(expected {STATE_VERSION})"
        )
    schema = Schema(
        Attribute(spec["name"], AttributeType(spec["type"]))
        for spec in state["schema"]
    )
    n = state["n"]
    columns: list[list[Value]] = []
    for j, encoded in enumerate(state["columns"]):
        if "raw" in encoded:
            column = list(encoded["raw"])
        else:
            values = encoded["values"]
            column = [values[c] for c in encoded["codes"]]
        if len(column) != n:
            raise ValueError(
                f"column {j} has {len(column)} cells for {n} rows"
            )
        columns.append(column)
    return Relation.from_columns(schema, columns)


def _encode(column: Sequence[Value], codebook: dict[Value, int]):
    """Each value's code as an ``int64`` vector, adding unseen values to
    ``codebook`` (value -> code) with the next free code, in
    first-occurrence order.

    One C-level ``dict.setdefault`` pass gives each unseen value its
    first row (offset by the old codebook size) as a provisional code;
    since first rows ascend in first-occurrence order, a lookup table
    then renumbers them densely.
    """
    base = len(codebook)
    n = len(column)
    codes = _np.fromiter(
        map(codebook.setdefault, column, count(base)), _np.int64, n
    )
    fresh = len(codebook) - base
    if 0 < fresh < n:  # fresh == n: every row is new, already dense
        table = _np.arange(base + n, dtype=_np.int64)
        table[
            _np.fromiter(islice(codebook.values(), base, None), _np.int64, fresh)
        ] = _np.arange(base, base + fresh)
        codes = table[codes]
        codebook.update(
            zip(list(islice(codebook, base, None)), range(base, base + fresh))
        )
    return codes


def _classify(
    values: Sequence[Value], self_unequal: bool, numeric_safe: bool
) -> tuple[bool, bool]:
    """``(self_unequal, numeric_safe)`` after adding distinct ``values``.

    ``self_unequal``: some value is unequal to itself (NaN-like), so
    equal codes do not imply raw ``==``.  ``numeric_safe``: every
    non-``None`` value is a bool, int or float and ints stay within
    2**53, so the float projection is exact.
    """
    for v in values:
        try:
            if v != v:
                self_unequal = True
        # staticcheck: disable=SC008 — a user value whose __eq__
        # raises is treated as self-unequal (the safe direction);
        # no budget-governed code runs in the comparison.
        except Exception:
            self_unequal = True
        if v is None:
            continue
        if not isinstance(v, (bool, int, float)):
            numeric_safe = False
        elif isinstance(v, int) and not isinstance(v, bool) and (
            abs(v) > _FLOAT_SAFE_INT
        ):
            numeric_safe = False
    return self_unequal, numeric_safe


class ColumnCodes:
    """Dictionary encoding of one column.

    ``codes[i]`` (an ``int64`` vector) is the dense integer code of row
    ``i``'s value; ``values[c]`` is the first-seen representative of
    code ``c``.  The per-code member lists (:attr:`groups`) are derived
    on first use, so a column that is only compared or gathered never
    builds them.
    """

    __slots__ = (
        "codes", "values", "codebook", "_groups", "n_distinct",
        "self_unequal", "numeric_safe", "none_code", "_floats",
        "_valid", "_sorted",
    )

    def __init__(self, column: Sequence[Value]) -> None:
        codebook: dict[Value, int] = {}
        self.codes = _encode(column, codebook)
        #: value -> code, retained so append-only deltas can extend the
        #: encoding in place instead of rebuilding it.
        self.codebook = codebook
        self.values: list[Value] = list(codebook)
        self.n_distinct = len(self.values)
        self.none_code = codebook.get(None, -1)
        self.self_unequal, self.numeric_safe = _classify(
            self.values, False, True
        )
        self._groups: list[list[int]] | None = None
        self._floats = None
        self._valid = None
        self._sorted = None

    @property
    def groups(self) -> list[list[int]]:
        """Member rows per code, in code (= first-occurrence) order.

        Each list is ascending.  Built on first use from one stable
        argsort of the codes; callers must treat the lists as read-only.
        """
        if self._groups is None:
            rows = _np.argsort(self.codes, kind="stable").tolist()
            ends = _np.cumsum(
                _np.bincount(self.codes, minlength=self.n_distinct)
            ).tolist()
            self._groups = [rows[s:e] for s, e in pairwise([0, *ends])]
        return self._groups

    def extended(self, column: Sequence[Value], start: int) -> "ColumnCodes":
        """A codebook for ``column`` reusing this one for rows < ``start``.

        ``column`` must agree with the encoded column on every row below
        ``start`` (the append-only delta contract).  Existing codes are
        memcpy-shared, new values extend the codebook in first-occurrence
        order — preserving the parity-critical invariant that code order
        equals first-occurrence order.  Group lists stay lazy unless this
        codebook already built them; then they are copy-on-append, so
        untouched groups stay shared with the parent.
        """
        out = ColumnCodes.__new__(ColumnCodes)
        codebook = dict(self.codebook)
        tail = _encode(column[start:], codebook)
        fresh = list(islice(codebook, self.n_distinct, None))
        out.codes = _np.concatenate([self.codes, tail])
        out.codebook = codebook
        out.values = self.values + fresh
        out.n_distinct = len(codebook)
        out.none_code = codebook.get(None, -1)
        out.self_unequal, out.numeric_safe = _classify(
            fresh, self.self_unequal, self.numeric_safe
        )
        out._groups = None
        if self._groups is not None:
            groups = list(self._groups)
            grown: set[int] = set()
            for i, code in enumerate(tail.tolist(), start):
                if code == len(groups):
                    groups.append([i])
                    grown.add(code)
                elif code in grown:
                    groups[code].append(i)
                else:
                    groups[code] = groups[code] + [i]
                    grown.add(code)
            out._groups = groups
        # The kernel-side caches of PR 6 (float projection, validity
        # mask, sorted projection) must not leak stale: either patch
        # them for the appended tail or drop them.  Patching is only
        # sound while the column stays numeric-safe — a tail value that
        # flips `numeric_safe` invalidates the float view wholesale.
        out._floats = None
        out._valid = None
        out._sorted = None
        if out.numeric_safe:
            tail_values = column[start:]
            if self._floats is not None:
                tail_floats = _np.array(tail_values, dtype=_np.float64)
                out._floats = _np.concatenate([self._floats, tail_floats])
            if self._valid is not None:
                out._valid = _np.concatenate(
                    [
                        self._valid,
                        _np.asarray(
                            [v is not None for v in tail_values], dtype=bool
                        ),
                    ]
                )
            if self._sorted is not None:
                # Merge the defined tail cells into the cached sorted
                # projection: O(k log n) instead of an O(n log n)
                # rebuild per batch.  Stability: appended rows all have
                # indices above every existing row, so inserting ties
                # with side="right" — and the tail's own ties in stable
                # ascending-row order — reproduces exactly the stable
                # argsort a cold build would produce.
                tail_floats = _np.array(tail_values, dtype=_np.float64)
                defined = _np.flatnonzero(~_np.isnan(tail_floats))
                old_rows, old_vals = self._sorted
                if defined.size == 0:
                    out._sorted = (old_rows, old_vals)
                else:
                    new_rows = (defined + start).astype(_np.int64)
                    new_vals = tail_floats[defined]
                    order = _np.argsort(new_vals, kind="stable")
                    new_rows = new_rows[order]
                    new_vals = new_vals[order]
                    pos = _np.searchsorted(old_vals, new_vals, side="right")
                    out._sorted = (
                        _np.insert(old_rows, pos, new_rows),
                        _np.insert(old_vals, pos, new_vals),
                    )
        return out

    def valid_array(self):
        """Boolean vector: ``True`` where the value is not ``None``."""
        if self._valid is None:
            if self.none_code < 0:
                self._valid = _np.ones(len(self.codes), dtype=bool)
            else:
                self._valid = self.codes != self.none_code
        return self._valid

    def float_array(self, column: Sequence[Value]):
        """The raw values as floats, ``NaN`` for ``None``.

        Only meaningful when :attr:`numeric_safe` (``None``, bools, ints
        within 2**53 and floats, all of which numpy converts exactly in
        one C-level pass); ``NaN`` comparisons are ``False``, matching
        the rule that ``None`` never compares.
        """
        if self._floats is None:
            self._floats = _np.array(column, dtype=_np.float64)
        return self._floats

    def sorted_projection(self, column: Sequence[Value]):
        """``(rows, values)``: defined cells ascending by float value.

        ``rows`` is an ``int64`` vector of the row indices whose float
        projection is defined (non-``None``, non-NaN), stably sorted by
        value — the shared substrate of ``searchsorted``-style interval
        and order kernels.  Cached; only meaningful when
        :attr:`numeric_safe`.
        """
        if self._sorted is None:
            floats = self.float_array(column)
            rows = _np.flatnonzero(~_np.isnan(floats))
            order = _np.argsort(floats[rows], kind="stable")
            rows = rows[order].astype(_np.int64, copy=False)
            self._sorted = (rows, floats[rows])
        return self._sorted


class RelationEncoding:
    """Lazily built dictionary encoding of a whole relation.

    Owned by a :class:`~repro.relation.relation.Relation` (which is
    immutable, so no invalidation is ever needed — derived relations
    simply start with a fresh, empty encoding).
    """

    __slots__ = (
        "_columns", "_n", "_per_column", "_combined", "_distinct",
        "_groups", "_keyed", "_stripped", "_ctx",
    )

    def __init__(self, columns: Sequence[Sequence[Value]], n: int) -> None:
        self._columns = columns
        self._n = n
        self._per_column: list[ColumnCodes | None] = [None] * len(columns)
        #: column-index tuple -> combined int codes (ndarray or list).
        self._combined: dict[tuple[int, ...], Any] = {}
        self._distinct: dict[tuple[int, ...], int] = {}
        #: memoized group tables / normalized stripped classes — the
        #: relation is immutable, so these never need invalidation.
        self._groups: dict[tuple[int, ...], list] = {}
        self._keyed: dict[tuple[int, ...], list] = {}
        self._stripped: dict[tuple, tuple] = {}
        #: Cached :class:`repro.plan.slabs.ExecutionContext` wrapping the
        #: owning relation (the encoding is the natural per-snapshot
        #: cache spot: relations are immutable, derived relations get a
        #: fresh encoding and therefore a fresh context).
        self._ctx: Any = None

    def extended(
        self, columns: Sequence[Sequence[Value]], n: int
    ) -> "RelationEncoding":
        """An encoding for an append-only extension of this relation.

        ``columns`` must equal this encoding's columns on the first
        ``self._n`` rows.  Already-built per-column codebooks carry over
        via :meth:`ColumnCodes.extended`; unbuilt columns stay lazy, and
        the combined/group memos start empty (they are cheap to rebuild
        and their keys would all be stale anyway).
        """
        out = RelationEncoding(columns, n)
        for j, cc in enumerate(self._per_column):
            if cc is not None:
                out._per_column[j] = cc.extended(columns[j], self._n)
        return out

    # -- codebooks -----------------------------------------------------

    def column_codes(self, j: int) -> ColumnCodes:
        cc = self._per_column[j]
        if cc is None:
            cc = ColumnCodes(self._columns[j])
            self._per_column[j] = cc
        return cc

    def codes_array(self, j: int):
        return self.column_codes(j).codes

    def valid_array(self, j: int):
        return self.column_codes(j).valid_array()

    def float_array(self, j: int):
        return self.column_codes(j).float_array(self._columns[j])

    def sorted_projection(self, j: int):
        """Cached ``(rows, values)`` sorted float projection of column ``j``."""
        return self.column_codes(j).sorted_projection(self._columns[j])

    def gather(self, j: int):
        """Batch fetch of one column's kernel arrays.

        Returns ``(codes, floats, valid)``: ``int64`` dictionary codes,
        the float projection (``None`` unless the column is
        numeric-safe), and the non-``None`` validity mask — everything
        the vectorized kernels need for a column, built once and cached
        on the encoding.
        """
        cc = self.column_codes(j)
        floats = (
            cc.float_array(self._columns[j]) if cc.numeric_safe else None
        )
        return cc.codes, floats, cc.valid_array()

    # -- combined keys -------------------------------------------------

    def combined_codes(self, idxs: tuple[int, ...]):
        """One integer per row encoding the value combination ``t[X]``.

        Codes are injective for the attribute set (equal combined code
        iff pairwise-equal values) but *not* dense nor order-preserving
        for multi-attribute sets; use the grouping helpers below.
        """
        cached = self._combined.get(idxs)
        if cached is not None:
            return cached
        first = self.column_codes(idxs[0])
        if len(idxs) == 1:
            combined = first.codes
            self._combined[idxs] = combined
            return combined
        acc = first.codes.copy()
        card = max(first.n_distinct, 1)
        for j in idxs[1:]:
            cc = self.column_codes(j)
            radix = max(cc.n_distinct, 1)
            if card * radix > _MAX_RADIX:
                __, acc = _np.unique(acc, return_inverse=True)
                acc = acc.astype(_np.int64, copy=False)
                card = int(acc.max()) + 1 if acc.size else 1
                if card * radix > _MAX_RADIX:  # pragma: no cover
                    raise OverflowError("combined key space too large")
            acc = acc * radix + cc.codes
            card *= radix
        self._combined[idxs] = acc
        return acc

    # -- grouping primitives -------------------------------------------

    def group_table(
        self, idxs: tuple[int, ...]
    ) -> list[tuple[int, list[int]]]:
        """``(first_row, member_rows)`` per group, first-occurrence order.

        Member rows are ascending, matching the append order of the
        naive dict-based ``group_by``.  Memoized per attribute set —
        callers must treat the table and its lists as read-only.
        """
        cached = self._groups.get(idxs)
        if cached is not None:
            return cached
        if len(idxs) == 1:
            # The codebook's member lists are in code (= first-
            # occurrence) order already.
            table = [(m[0], m) for m in self.column_codes(idxs[0]).groups]
            self._groups[idxs] = table
            return table
        codes = self.combined_codes(idxs)
        if self._n == 0:
            table: list[tuple[int, list[int]]] = []
        else:
            # One stable argsort over the combined codes; equal codes
            # stay in row order, so each slice is already ascending and
            # its head is the group's first-occurrence row.
            order = _np.argsort(codes, kind="stable")
            ordered = codes[order]
            bounds = (_np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
            starts = [0, *bounds]
            ends = [*bounds, self._n]
            rows = order.tolist()
            table = [(rows[s], rows[s:e]) for s, e in zip(starts, ends, strict=True)]
            table.sort(key=lambda group: group[0])
        self._groups[idxs] = table
        return table

    def keyed_table(
        self, idxs: tuple[int, ...]
    ) -> list[tuple[tuple, list[int]]]:
        """``(key_tuple, member_rows)`` per group, first-occurrence order.

        Keys are decoded from the raw column values at each group's
        first row — exactly the tuples the naive ``group_by`` inserts —
        and the decode is memoized alongside the group table.  Callers
        must copy the member lists before mutating.
        """
        cached = self._keyed.get(idxs)
        if cached is not None:
            return cached
        cols = [self._columns[j] for j in idxs]
        keyed = [
            (tuple(col[first] for col in cols), members)
            for first, members in self.group_table(idxs)
        ]
        self._keyed[idxs] = keyed
        return keyed

    def stripped_classes(
        self, idxs: tuple[int, ...], min_size: int = 2
    ) -> tuple[tuple[int, ...], ...]:
        """Groups of size >= ``min_size``, keys skipped entirely.

        This is the partition-construction kernel: no key decoding, no
        singleton materialization.  Classes come back normalized —
        ascending member tuples, first-occurrence order — and memoized,
        so repeated partition builds are dictionary hits.
        """
        key = (idxs, min_size)
        cached = self._stripped.get(key)
        if cached is not None:
            return cached
        classes = tuple(
            tuple(members)
            for __, members in self.group_table(idxs)
            if len(members) >= min_size
        )
        self._stripped[key] = classes
        return classes

    def distinct_count(self, idxs: tuple[int, ...]) -> int:
        """Number of distinct value combinations over the attribute set."""
        cached = self._distinct.get(idxs)
        if cached is not None:
            return cached
        if len(idxs) == 1:
            count = self.column_codes(idxs[0]).n_distinct
        else:
            count = int(_np.unique(self.combined_codes(idxs)).size)
        self._distinct[idxs] = count
        return count

    def distinct_first_rows(self, idxs: tuple[int, ...]) -> list[int]:
        """First-occurrence row of each distinct combination, ascending.

        Ascending first-occurrence rows reproduce the naive duplicate
        elimination order of ``Relation.project``.
        """
        __, first = _np.unique(self.combined_codes(idxs), return_index=True)
        first.sort()
        return first.tolist()

    # -- pairwise primitives -------------------------------------------

    def difference_masks(self, idxs: tuple[int, ...]) -> set[int] | None:
        """Distinct per-pair disagreement bitmasks over all tuple pairs.

        Bit ``b`` of a mask is set iff the pair disagrees on the
        ``b``-th attribute of ``idxs`` (FastFD's difference sets, as
        integers).  Returns ``None`` when the vectorized kernel cannot
        guarantee parity with raw ``!=`` comparisons — more than 62
        attributes, or a column holding NaN-like values that
        are unequal to themselves (raw ``!=`` sees a difference where
        equal dictionary codes would not).
        """
        k = len(idxs)
        if not 1 <= k <= 62 or self._n < 2:
            return None
        cols = []
        for j in idxs:
            cc = self.column_codes(j)
            if cc.self_unequal:
                return None
            cols.append(cc.codes)
        matrix = _np.stack(cols, axis=1)
        weights = _np.left_shift(
            _np.int64(1), _np.arange(k, dtype=_np.int64)
        )
        seen: set[int] = set()
        for i in range(self._n - 1):
            neq = matrix[i + 1:] != matrix[i]
            seen.update(
                _np.unique(neq.astype(_np.int64) @ weights).tolist()
            )
        seen.discard(0)
        return seen
