"""Engine-neutral execution contexts.

The kernel layer (:mod:`repro.plan.kernels`, :mod:`repro.plan.kernels_vec`)
does not touch a live :class:`~repro.relation.relation.Relation` handle:
it consumes an :class:`ExecutionContext` — a thin, read-only facade over
one immutable snapshot's column data — plus a compiled
:class:`~repro.plan.ir.Plan`.  The context exposes exactly the column
primitives the kernels need (raw columns, equal-value groups, encoded
code/float/validity arrays, sorted projections, combined keys) and
nothing else, which is what makes plan execution *engine-neutral*: the
same kernels could run against another column engine that implements
this facade.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

__all__ = [
    "ExecutionContext",
    "context_for",
]


class ExecutionContext:
    """What the plan kernels see instead of a live relation handle.

    A read-only facade over one immutable snapshot: row count, schema,
    and the column primitives the candidate generators and vectorized
    masks consume.  Contexts are cheap (built once per snapshot, cached
    on the encoding — see :func:`context_for`).
    """

    __slots__ = ("_source", "n", "schema")

    def __init__(self, source: Any) -> None:
        self._source = source
        self.n: int = len(source)
        self.schema = source.schema

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(n={self.n}, "
            f"attrs={list(self.schema.names())})"
        )

    # -- scalar-kernel primitives --------------------------------------

    def column(self, attr: str) -> Sequence[Any]:
        """The full raw column of ``attr``."""
        return self._source.column(attr)  # type: ignore[no-any-return]

    def group_rows(self, attrs: tuple[str, ...]) -> Any:
        """Member-row lists of the equal-value partition over ``attrs``.

        First-occurrence order, ascending members — the shared partition
        cache of the snapshot.  Raises :class:`TypeError` when a column
        holds unhashable cells (callers fall back to scanning).
        """
        return self._source.cached_group_by(attrs).values()

    # -- vector-kernel primitives --------------------------------------

    def gather(self, attr: str) -> tuple[Any, Any, Any]:
        """``(codes, floats, valid)`` kernel arrays of one column."""
        source = self._source
        j = source.schema.index_of(attr)
        return source.encoding().gather(j)  # type: ignore[no-any-return]

    def distinct_values(self, attr: str) -> list[Any]:
        """Distinct values of a column, dictionary-code order."""
        source = self._source
        j = source.schema.index_of(attr)
        return source.encoding().column_codes(j).values  # type: ignore[no-any-return]

    def sorted_projection(self, attr: str) -> tuple[Any, Any]:
        """Cached ``(rows, values)`` float-sorted projection of a column."""
        source = self._source
        j = source.schema.index_of(attr)
        return source.encoding().sorted_projection(j)  # type: ignore[no-any-return]

    def combined_codes(self, attrs: tuple[str, ...]) -> Any:
        """One integer per row encoding the value combination over ``attrs``."""
        source = self._source
        idxs = tuple(source.schema.index_of(a) for a in attrs)
        return source.encoding().combined_codes(idxs)


def context_for(relation: Any) -> ExecutionContext:
    """The execution context of a relation snapshot (built once, cached).

    Cached on the relation's encoding: relations are immutable, derived
    relations start with a fresh encoding, so a context can never go
    stale.
    """
    enc = relation.encoding()
    ctx = enc._ctx
    if ctx is None:
        ctx = ExecutionContext(relation)
        enc._ctx = ctx
    return ctx  # type: ignore[no-any-return]
