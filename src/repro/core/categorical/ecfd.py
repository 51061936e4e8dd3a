"""Extended conditional functional dependencies (eCFDs) — Section 2.5.5.

eCFDs extend CFD pattern cells from constants to predicates ``op a``
with ``op ∈ {=, ≠, <, <=, >, >=}``, substantially increasing expressive
power at unchanged implication complexity (coNP-complete).

Worked example (Table 5)::

    ecfd1: rate <= 200, name = _  ->  address = _

"if two tuples have the same rate value <= 200, then their name
determines address".  Note the embedded FD of ecfd1 is
``rate, name -> address``; the predicate conditions the rate column.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ...relation.schema import Attribute
from .cfd import CFD
from .fd import FD
from .pattern import Pattern


class ECFD(CFD):
    """An extended CFD: CFD semantics with operator pattern entries."""

    kind = "eCFD"
    _allow_operators = True

    # Semantics are inherited unchanged from CFD: `PatternEntry.matches`
    # already evaluates operator entries (per dictionary code, like
    # constants), and the pairwise/single-tuple split is identical.
    # Only construction differs (operators allowed).

    @classmethod
    def from_cfd(cls, dep: CFD) -> "ECFD":
        """Embed a CFD as an eCFD with the same pattern (Fig. 1 edge)."""
        return cls(dep.lhs, dep.rhs, dep.pattern)

    @classmethod
    def from_fd(cls, dep: FD) -> "ECFD":
        """Embed an FD as the all-wildcard eCFD (via the CFD edge)."""
        return cls(dep.lhs, dep.rhs, Pattern())


def ecfd(
    lhs: Sequence[Attribute | str] | Attribute | str,
    rhs: Sequence[Attribute | str] | Attribute | str,
    pattern: Pattern | Mapping[str, object] | None = None,
) -> ECFD:
    """Shorthand constructor mirroring the paper's inline notation.

    >>> ecfd(["rate", "name"], "address", {"rate": ("<=", 200)})
    """
    return ECFD(lhs, rhs, pattern)
