"""Columnar CFD/eCFD matching and the vectorized SD DP against the oracle.

``CFD.matching_indices`` evaluates pattern entries once per dictionary
code and ``SD.confidence`` runs its DP one numpy comparison per row;
:mod:`tests.oracle` states both semantics one row (or pair) at a time.
The cells here are chosen to break a careless columnar path: ``None``,
NaN (shared and fresh objects), ``1``/``1.0``/``True``, ``"1"`` vs
``1``, ints past 2**53 next to their float neighbour, and eCFD order
operators between strings and numbers (the ``TypeError`` path).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import CFD, CSD, SD
from repro.core.categorical.cfd import CFDTableau
from repro.core.categorical.ecfd import ECFD
from repro.core.heterogeneous.constraints import Interval
from repro.relation import Relation

from tests import oracle

_NAN = float("nan")

HOSTILE = [
    None, 0, 1, 1.0, True, False, -0.0, -3, "1", "a", "",
    2**53, 2**53 + 1, float(2**53), math.inf,
]

#: Shared NaN (one code) and fresh NaN objects (one code each).
cells = st.one_of(
    st.sampled_from(HOSTILE),
    st.just(_NAN),
    st.builds(float, st.just("nan")),
)

OPERATORS = ["=", "!=", "<", "<=", ">", ">="]

SHAPES = [
    (("a",), ("b",)),
    (("a",), ("b", "c")),
    (("a", "c"), ("b",)),
    (("c", "a"), ("b",)),
]


@st.composite
def hostile_relations(draw, names=("a", "b", "c"), cell=cells, max_rows=12):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    rows = [tuple(draw(cell) for __ in names) for __ in range(n)]
    return Relation.from_rows(list(names), rows)


@st.composite
def cfds(draw, operators=False):
    lhs, rhs = draw(st.sampled_from(SHAPES))
    pattern = {}
    for a in lhs + rhs:
        if draw(st.booleans()):
            continue  # wildcard
        constant = draw(cells)
        if operators:
            pattern[a] = (draw(st.sampled_from(OPERATORS)), constant)
        else:
            pattern[a] = constant
    return (ECFD if operators else CFD)(lhs, rhs, pattern)


def _assert_cfd_agrees(dep, relation):
    assert dep.matching_indices(relation) == oracle.cfd_matching_indices(
        dep, relation
    )
    assert dep.support(relation) == oracle.cfd_support(dep, relation)
    got = list(dep.violations(relation))
    want = list(oracle.cfd_violations(dep, relation))
    assert [str(v) for v in got] == [str(v) for v in want]
    assert got == want
    assert dep.holds(relation) == oracle.cfd_holds(dep, relation)


@settings(max_examples=300, deadline=None)
@given(hostile_relations(), cfds())
def test_cfd_matches_oracle(relation, dep):
    _assert_cfd_agrees(dep, relation)


@settings(max_examples=300, deadline=None)
@given(hostile_relations(), cfds(operators=True))
def test_ecfd_matches_oracle(relation, dep):
    _assert_cfd_agrees(dep, relation)


@settings(max_examples=100, deadline=None)
@given(hostile_relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_tableau_support_matches_oracle(relation, rows):
    lhs, rhs = ("a",), ("b",)
    tableau = CFDTableau(lhs, rhs)
    for row in rows:
        tableau.add({a: e for a, e in row.pattern.entries().items()
                     if a in lhs + rhs})
    covered = set()
    for row in tableau:
        covered.update(oracle.cfd_matching_indices(row, relation))
    want = len(covered) / len(relation) if len(relation) else 0.0
    assert tableau.support(relation) == want


def test_equal_numbers_share_a_verdict():
    """``True`` encodes first, so ``1`` and ``1.0`` share its code; the
    string ``"1"`` and the float next to 2**53 + 1 do not."""
    r = Relation.from_rows(
        ["a", "b"],
        [(True, "x"), (1, "y"), (1.0, "x"), ("1", "x"),
         (2**53 + 1, "x"), (float(2**53), "x")],
    )
    dep = CFD("a", "b", {"a": 1.0})
    assert dep.matching_indices(r) == [0, 1, 2]
    assert not dep.holds(r)
    assert ECFD("a", "b", {"a": ("<", 2**53 + 1)}).matching_indices(r) == [
        0, 1, 2, 5,
    ]
    _assert_cfd_agrees(dep, r)


# -- SD / CSD --------------------------------------------------------------

numbers = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, -2, 2.5, 3, 3, 7, -0.0]),
    st.sampled_from([math.inf, -math.inf]),
    st.builds(float, st.just("nan")),
)

BOUNDS = [-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 3.0, math.inf]


@st.composite
def gaps(draw):
    low, high = sorted(draw(st.lists(st.sampled_from(BOUNDS),
                                     min_size=2, max_size=2)))
    return Interval(low, high, low_open=draw(st.booleans()),
                    high_open=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(
    hostile_relations(("x", "z", "y"), numbers, max_rows=14),
    gaps(),
    st.sampled_from([("x",), ("x", "z")]),
)
def test_sd_matches_oracle(relation, gap, lhs):
    dep = SD(lhs, "y", gap)
    assert dep.sorted_indices(relation) == oracle.sd_sorted_indices(
        dep, relation
    )
    assert repr(dep.consecutive_gaps(relation)) == repr(
        oracle.sd_consecutive_gaps(dep, relation)
    )
    assert dep.confidence(relation) == oracle.sd_confidence(dep, relation)


@settings(max_examples=200, deadline=None)
@given(
    hostile_relations(("x", "y"), numbers, max_rows=14),
    gaps(),
    st.lists(gaps(), min_size=1, max_size=2),
)
def test_csd_matches_oracle(relation, gap, intervals):
    dep = CSD("x", "y", gap, intervals)
    assert dep.confidence(relation) == oracle.csd_confidence(dep, relation)
