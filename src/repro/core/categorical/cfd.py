"""Conditional functional dependencies (CFDs) — Section 2.5.

A CFD ``(X -> Y, t_p)`` embeds a standard FD that holds only on the
subset of tuples matching the pattern tuple ``t_p``.  Pattern cells are
constants or the unnamed variable ``'_'``.  An all-wildcard pattern
recovers a plain FD (Section 2.5.2).

Semantics (Fan et al. [34]): for tuples ``t1, t2`` *matching t_p on X*
and agreeing on ``X``, they must agree on ``Y`` and both match ``t_p``
on ``Y``.  With constants on the right-hand side this also constrains
single tuples (a tuple matching the LHS pattern whose Y-value differs
from the RHS constant violates on its own).

Worked example (Table 5): ``cfd1: region = "Jackson", name = _ ->
address = _`` is satisfied by t1, t2.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Mapping, Sequence

import numpy as _np

from ...relation.relation import Relation
from ...relation.schema import Attribute
from ..base import Dependency, DependencyError, format_attrs
from ..violation import Violation, ViolationSet
from .fd import FD
from .pattern import Pattern, PatternEntry


def _entry_mask(relation: Relation, attribute: str, entry: PatternEntry):
    """Row mask of ``entry.matches`` on one column, evaluated per code."""
    codes = relation.encoding().column_codes(
        relation.schema.index_of(attribute)
    )
    verdicts = _np.fromiter(
        (entry.matches(v) for v in codes.values),
        dtype=bool,
        count=codes.n_distinct,
    )
    return verdicts[codes.array()]


class CFD(Dependency):
    """A conditional functional dependency ``(X -> Y, t_p)``."""

    kind = "CFD"

    #: eCFD subclass flips this to allow operator entries.
    _allow_operators = False

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        pattern: Pattern | Mapping[str, object] | None = None,
    ) -> None:
        self.embedded = FD(lhs, rhs)
        self.lhs = self.embedded.lhs
        self.rhs = self.embedded.rhs
        self.pattern = pattern if isinstance(pattern, Pattern) else Pattern(pattern)
        scope = set(self.lhs) | set(self.rhs)
        stray = [a for a in self.pattern.entries() if a not in scope]
        if stray:
            raise DependencyError(
                f"pattern mentions attributes outside X ∪ Y: {sorted(stray)}"
            )
        if not self._allow_operators and not self.pattern.uses_only_constants(
            scope
        ):
            raise DependencyError(
                "CFD patterns allow only constants and wildcards; "
                "use ECFD for operator predicates"
            )

    def __str__(self) -> str:
        return (
            f"{format_attrs(self.lhs)} -> {format_attrs(self.rhs)}, "
            f"{self.pattern.render(self.lhs, self.rhs)}"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.lhs!r}, {self.rhs!r}, {self.pattern!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CFD):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.pattern == other.pattern
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.lhs, self.rhs, self.pattern))

    def attributes(self) -> tuple[str, ...]:
        return self.embedded.attributes()

    # -- structure ------------------------------------------------------------

    def is_constant_cfd(self) -> bool:
        """True iff every pattern cell (over X and Y) is a constant."""
        return all(
            not self.pattern.entry(a).is_wildcard
            for a in self.lhs + self.rhs
        )

    def is_variable_cfd(self) -> bool:
        """True iff the RHS pattern is a wildcard (variable CFD)."""
        return all(self.pattern.entry(a).is_wildcard for a in self.rhs)

    def _match_mask(self, relation: Relation):
        """Boolean row vector of :meth:`matching_indices`."""
        mask = _np.ones(len(relation), dtype=bool)
        for a in self.lhs:
            entry = self.pattern.entry(a)
            if not entry.is_wildcard:
                mask &= _entry_mask(relation, a, entry)
        return mask

    def matching_indices(self, relation: Relation) -> list[int]:
        """Tuples matching ``t_p`` on the LHS — the conditioned subset.

        Columnar evaluation: each non-wildcard LHS entry is evaluated
        once per *distinct* value of its column (the dictionary
        codebook), the per-code verdicts are gathered through the row
        codes, and the per-attribute masks are ANDed; the result is the
        ascending row indices.  This equals :meth:`matches_lhs` per row
        because dict-equal values share a code, and for the
        ``None``/bool/int/float/str cells the substrate holds,
        dict-equal values get the same verdict from every pattern
        operator: ``1``/``1.0``/``True`` compare alike, ints and floats
        compare exactly (an int past 2**53 and its float neighbour are
        different codes), ``"1"`` and ``1`` are different codes, and
        each NaN object is its own code.
        """
        return _np.flatnonzero(self._match_mask(relation)).tolist()

    def support(self, relation: Relation) -> float:
        """Fraction of tuples the condition covers (Section 2.5.3)."""
        if len(relation) == 0:
            return 0.0
        return int(self._match_mask(relation).sum()) / len(relation)

    # -- semantics ------------------------------------------------------------

    def matches_lhs(self, relation: Relation, i: int) -> bool:
        """Does tuple ``i`` match ``t_p`` on the LHS (is it conditioned)?"""
        # Targeted reads: only the LHS columns, so column routing by
        # attributes() stays faithful.
        record = {a: relation.value_at(i, a) for a in self.lhs}
        return self.pattern.matches(record, self.lhs)

    def single_violations(
        self, relation: Relation, i: int, label: str | None = None
    ) -> list[Violation]:
        """RHS-constant violations of one LHS-matching tuple.

        The incremental checker re-derives only changed tuples through
        this hook; reasons match the full :meth:`violations` scan.
        """
        if label is None:
            label = self.label()
        out: list[Violation] = []
        for a in self.rhs:
            entry = self.pattern.entry(a)
            if entry.is_wildcard:
                continue
            value = relation.value_at(i, a)
            if not entry.matches(value):
                out.append(
                    Violation(
                        label,
                        (i,),
                        f"{a} = {value!r} fails pattern {entry}",
                    )
                )
        return out

    def group_violations(
        self,
        relation: Relation,
        x_value: tuple,
        indices: Sequence[int],
        label: str | None = None,
    ) -> list[Violation]:
        """Embedded-FD violations among one equal-``X`` matching group."""
        if label is None:
            label = self.label()
        out: list[Violation] = []
        if len(indices) < 2:
            return out
        by_y: dict[tuple, list[int]] = {}
        for t in indices:
            by_y.setdefault(relation.values_at(t, self.rhs), []).append(t)
        if len(by_y) < 2:
            return out
        for (ya, ta), (yb, tb) in combinations(list(by_y.items()), 2):
            for i in ta:
                for j in tb:
                    out.append(
                        Violation(
                            label,
                            (i, j),
                            f"X={x_value!r} (matching pattern): "
                            f"{ya!r} vs {yb!r}",
                        )
                    )
        return out

    def _rhs_failures(self, relation: Relation, mask):
        """Rows of ``mask`` whose RHS misses a pattern constant, ascending."""
        failing = _np.zeros(len(relation), dtype=bool)
        for a in self.rhs:
            entry = self.pattern.entry(a)
            if not entry.is_wildcard:
                failing |= ~_entry_mask(relation, a, entry)
        return _np.flatnonzero(failing & mask).tolist()

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        label = self.label()
        mask = self._match_mask(relation)

        # Single-tuple part: RHS constants must be met by each matching tuple.
        for i in self._rhs_failures(relation, mask):
            vs.extend(self.single_violations(relation, i, label))

        # Pairwise part: the embedded FD on the matching subset.
        columns = [relation.column(a) for a in self.lhs]
        groups: dict[tuple, list[int]] = {}
        for i in _np.flatnonzero(mask).tolist():
            groups.setdefault(tuple(c[i] for c in columns), []).append(i)
        for x_value, indices in groups.items():
            vs.extend(self.group_violations(relation, x_value, indices, label))
        return vs

    def holds(self, relation: Relation) -> bool:
        mask = self._match_mask(relation)
        if self._rhs_failures(relation, mask):
            return False
        rows = _np.flatnonzero(mask)
        if rows.size < 2:
            return True
        enc = relation.encoding()
        index_of = relation.schema.index_of
        x = enc.combined_codes(tuple(index_of(a) for a in self.lhs))[rows]
        y = enc.combined_codes(tuple(index_of(a) for a in self.rhs))[rows]
        # Sorted on (x, y): the embedded FD fails iff some adjacent pair
        # agrees on x but not on y.
        order = _np.lexsort((y, x))
        x, y = x[order], y[order]
        return not bool(((x[1:] == x[:-1]) & (y[1:] != y[:-1])).any())

    # -- family tree -------------------------------------------------------------

    @classmethod
    def from_fd(cls, dep: FD) -> "CFD":
        """Embed an FD as the CFD with the all-wildcard pattern (Fig. 1)."""
        return cls(dep.lhs, dep.rhs, Pattern())


class CFDTableau:
    """A set of pattern tuples sharing one embedded FD.

    CFD practice (and CFD discovery, Section 2.5.3) treats the rule as
    an embedded FD plus a *tableau* of pattern rows; the constraint is
    the conjunction of the per-row CFDs.
    """

    def __init__(
        self,
        lhs: Sequence[Attribute | str] | Attribute | str,
        rhs: Sequence[Attribute | str] | Attribute | str,
        patterns: Sequence[Pattern | Mapping[str, object]] = (),
    ) -> None:
        self.embedded = FD(lhs, rhs)
        self.rows: list[CFD] = [
            CFD(self.embedded.lhs, self.embedded.rhs, p) for p in patterns
        ]

    def add(self, pattern: Pattern | Mapping[str, object]) -> None:
        self.rows.append(CFD(self.embedded.lhs, self.embedded.rhs, pattern))

    def holds(self, relation: Relation) -> bool:
        return all(row.holds(relation) for row in self.rows)

    def violations(self, relation: Relation) -> ViolationSet:
        vs = ViolationSet()
        for row in self.rows:
            vs.extend(row.violations(relation))
        return vs

    def support(self, relation: Relation) -> float:
        """Fraction of tuples covered by at least one tableau row."""
        if len(relation) == 0:
            return 0.0
        covered = _np.zeros(len(relation), dtype=bool)
        for row in self.rows:
            covered |= row._match_mask(relation)
        return int(covered.sum()) / len(relation)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __str__(self) -> str:
        header = f"{format_attrs(self.embedded.lhs)} -> {format_attrs(self.embedded.rhs)}"
        rows = "; ".join(
            r.pattern.render(self.embedded.lhs, self.embedded.rhs)
            for r in self.rows
        )
        return f"{header} with tableau [{rows}]"
