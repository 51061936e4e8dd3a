"""Columnar production paths against the row-at-a-time oracle.

``CFD.matching_indices`` evaluates pattern entries once per dictionary
code, ``SD.confidence`` runs its DP one numpy comparison per row, the
CSV loader coerces whole columns in one pass, ``ColumnCodes.groups``
comes from an argsort and ``ColumnCodes.float_array`` from one numpy
conversion; :mod:`tests.oracle` states each semantics one row (or pair,
or cell) at a time.  Budget-partial detection reports and ``repro
check`` end to end are held to the oracle as well.  The cells here are chosen to break a
careless columnar path: ``None``, NaN (shared and fresh objects),
``1``/``1.0``/``True``, ``"1"`` vs ``1``, ints past 2**53 next to their
float neighbour, eCFD order operators between strings and numbers (the
``TypeError`` path), and CSV text with quoted newlines, blank lines,
non-finite numbers and ragged rows.
"""

import csv
import io
import math
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _detect_schema, load_relation, main
from repro.core import CFD, CSD, SD
from repro.core.categorical.cfd import CFDTableau
from repro.core.categorical.ecfd import ECFD
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.constraints import Interval
from repro.core.heterogeneous.dd import DD
from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.ned import NED
from repro.core.numerical.dc import DC, pred2, predc
from repro.core.numerical.od import OD
from repro.quality.detection import Detector
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.relation.encoding import ColumnCodes
from repro.relation.io import read_csv, read_csv_text
from repro.rules_io import load_rules
from repro.runtime import Budget, governed
from repro.runtime.errors import InputError

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


# -- CSV loading -----------------------------------------------------------

FINITE_CELLS = [
    "", " ", "1", "-0", "1.0", "1e3", "1_000", "2.5", "-3", "  7 ", "2\n",
    "9007199254740993", "12345678901234567890", "1e20", "-1e19", "9.2e18",
]
NONFINITE_CELLS = ["nan", "NaN", "inf", "-inf", "Infinity"]
TEXT_CELLS = ["abc", "0x10", "a,b", "x\ny", " 4,5 ", 'say "hi"', "a\rb"]

DTYPES = [AttributeType.NUMERICAL, AttributeType.TEXT,
          AttributeType.CATEGORICAL]


@st.composite
def csv_cells(draw, pool):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(NONFINITE_CELLS))
    return draw(st.sampled_from(pool))


@st.composite
def hostile_csv(draw):
    """``(names, text)``: up to three columns, each drawn from a numeric
    or a mixed pool so that inference goes both ways; blank lines, a
    padded header, the odd ragged row, and an unquoted ``\\r`` that the
    reader rejects unless every cell is quoted."""
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    pools = [
        draw(st.sampled_from([FINITE_CELLS, FINITE_CELLS + TEXT_CELLS]))
        for __ in names
    ]
    buf = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    writer = csv.writer(buf, lineterminator="\n", quoting=quoting)
    writer.writerow([draw(st.sampled_from([n, f" {n} "])) for n in names])
    for __ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            buf.write("\n")
        row = [draw(csv_cells(pool)) for pool in pools]
        if draw(st.integers(0, 19)) == 0:
            row = row[:-1] if draw(st.booleans()) else [*row, "1"]
        writer.writerow(row)
    return names, buf.getvalue()


@st.composite
def schemas(draw, names):
    if draw(st.booleans()):
        return None
    return Schema(Attribute(n, draw(st.sampled_from(DTYPES))) for n in names)


def _outcome(load):
    """What a loader returned, cell types included, or where it failed."""
    try:
        out = load()
    except InputError as exc:
        return ("InputError", exc.row, exc.column, exc.source, str(exc))
    except csv.Error as exc:
        return ("csv.Error", str(exc))
    if isinstance(out, Schema):
        return out
    return out.schema, [
        [(type(v).__name__, repr(v)) for v in out.column(a.name)]
        for a in out.schema
    ]


@settings(max_examples=400, deadline=None)
@given(hostile_csv(), st.data(), st.booleans())
def test_read_csv_text_matches_oracle(table, data, allow_nonfinite):
    names, text = table
    schema = data.draw(schemas(names))
    got = _outcome(lambda: read_csv_text(
        text, schema, allow_nonfinite=allow_nonfinite))
    want = _outcome(lambda: oracle.read_csv_text(
        text, schema, allow_nonfinite=allow_nonfinite))
    assert got == want


@settings(max_examples=200, deadline=None)
@given(
    hostile_csv(),
    st.data(),
    st.booleans(),
    st.sets(st.sampled_from("abc")),
    st.sets(st.sampled_from("abc")),
)
def test_file_loaders_match_oracle(table, data, allow_nonfinite, numerical,
                                   text):
    names, body = table
    schema = data.draw(schemas(names))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", newline="", encoding="utf-8") as f:
            f.write(body)
        assert _outcome(lambda: _detect_schema(path, numerical, text)) == (
            _outcome(lambda: oracle.detect_schema(path, numerical, text)))
        assert _outcome(lambda: load_relation(path, numerical, text)) == (
            _outcome(lambda: oracle.load_relation(path, numerical, text)))
        assert _outcome(lambda: read_csv(
            path, schema, allow_nonfinite=allow_nonfinite)) == _outcome(
            lambda: oracle.read_csv(
                path, schema, allow_nonfinite=allow_nonfinite))


def test_error_line_counts_quoted_newlines():
    """The error sits on line 5: the quoted cell spans lines 2-3 and
    line 4 is blank."""
    text = 'a,b\n"x\ny",1\n\nz,oops\n'
    schema = Schema([Attribute("a"),
                     Attribute("b", AttributeType.NUMERICAL)])
    with pytest.raises(InputError) as exc:
        read_csv_text(text, schema)
    assert (exc.value.row, exc.value.column) == (5, "b")
    assert _outcome(lambda: read_csv_text(text, schema)) == _outcome(
        lambda: oracle.read_csv_text(text, schema))


def test_nonfinite_in_numeric_column_still_raises(tmp_path):
    """``nan`` parses with ``float()``, so the column is detected as
    numerical and then rejected, as a typed read would."""
    path = tmp_path / "nf.csv"
    path.write_text("a,b\n1,x\nnan,y\n", encoding="utf-8")
    assert _detect_schema(str(path), set(), set())["a"].dtype is (
        AttributeType.NUMERICAL)
    with pytest.raises(InputError) as exc:
        load_relation(str(path))
    assert (exc.value.row, exc.value.column) == (3, "a")


def test_piped_input_reports_its_error(tmp_path):
    """A pipe cannot seek back for the error rescan; it is buffered."""
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", encoding="utf-8") as f:
            f.write("a\n1\nx\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(InputError) as exc:
        read_csv(fifo, Schema([Attribute("a", AttributeType.NUMERICAL)]))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (exc.value.row, exc.value.column) == (3, "a")


def test_wide_numbers_keep_python_types():
    r = read_csv_text(
        "x,y\n9007199254740993,1e20\n-0,1.5\n1_000,\n",
        Schema([Attribute("x", AttributeType.NUMERICAL),
                Attribute("y", AttributeType.NUMERICAL)]),
    )
    assert r.column("x") == (9007199254740992, 0, 1000)
    assert [type(v) for v in r.column("x")] == [int, int, int]
    assert r.column("y") == (10**20, 1.5, None)
    assert [type(v) for v in r.column("y")] == [int, float, type(None)]


# -- dictionary encoding ---------------------------------------------------

#: Integer columns with ints on both sides of the 2**53 bound of
#: ``numeric_safe``, and string columns.
INTS = [None, 0, 7, -7, 2**53, -(2**53), 2**53 + 1, -(2**53) - 1]
STRS = [None, "", "a", "b", "1"]

columns = st.one_of(
    st.lists(cells, max_size=16),
    st.lists(st.sampled_from(INTS), max_size=16),
    st.lists(st.sampled_from(STRS), max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(columns)
def test_codebook_matches_oracle(column):
    cc = ColumnCodes(column)
    codes, codebook = oracle.column_codes(column)
    assert cc.codes.tolist() == codes
    assert list(cc.codebook.items()) == list(codebook.items())
    assert cc.values == list(codebook)
    assert (cc.self_unequal, cc.numeric_safe) == oracle.column_flags(column)


@settings(max_examples=200, deadline=None)
@given(hostile_relations(), st.sets(st.sampled_from(range(3))))
def test_state_matches_oracle_with_codebooks_built_or_not(relation, built):
    for j in built:
        relation.encoding().column_codes(j)
    assert relation.to_state() == oracle.relation_state(relation)


def test_state_keeps_raw_fallback_for_unhashable_cells():
    relation = Relation.from_rows(["a", "b"], [([1], "x"), ([1], "y")])
    assert relation.to_state() == oracle.relation_state(relation)
    assert relation.to_state()["columns"][0] == {"raw": [[1], [1]]}


def _assert_same_codebook(mine, fresh):
    assert np.array_equal(mine.codes, fresh.codes)
    assert mine.codes.dtype == np.int64
    assert list(mine.codebook.items()) == list(fresh.codebook.items())
    assert mine.values == fresh.values
    assert (mine.n_distinct, mine.none_code, mine.self_unequal,
            mine.numeric_safe) == (fresh.n_distinct, fresh.none_code,
                                   fresh.self_unequal, fresh.numeric_safe)


@settings(max_examples=300, deadline=None)
@given(columns, st.integers(min_value=0, max_value=16))
def test_lazy_groups_match_dict_grouping(column, cut):
    cut = min(cut, len(column))
    fresh = ColumnCodes(column)
    assert fresh.groups == oracle.column_groups(column)

    lazy_parent = ColumnCodes(column[:cut])
    child = lazy_parent.extended(column, cut)
    assert lazy_parent._groups is None and child._groups is None
    _assert_same_codebook(child, fresh)
    assert child.groups == fresh.groups

    built_parent = ColumnCodes(column[:cut])
    before = built_parent.groups
    child = built_parent.extended(column, cut)
    _assert_same_codebook(child, fresh)
    assert child.groups == fresh.groups
    assert built_parent.groups is before
    assert before == oracle.column_groups(column[:cut])


#: Cells :func:`ColumnCodes.float_array` must convert exactly: ``None``,
#: shared and fresh NaN, bools, ints up to 2**53, signed zero.
float_cells = st.one_of(
    st.sampled_from([None, True, False, 0, -3, 2**53, -(2**53), -0.0, 0.0,
                     2.5, math.inf]),
    st.just(_NAN),
    st.builds(float, st.just("nan")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(float_cells, max_size=16), st.integers(min_value=0,
                                                       max_value=16))
def test_float_array_matches_oracle(column, cut):
    want = np.array(oracle.column_floats(column), dtype=np.float64)
    fresh = ColumnCodes(column)
    assert fresh.numeric_safe
    parent = ColumnCodes(column[:min(cut, len(column))])
    parent.float_array(column[:min(cut, len(column))])
    child = parent.extended(column, min(cut, len(column)))
    for got in (fresh.float_array(column), child.float_array(column)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want, equal_nan=True)
        assert np.signbit(got).tolist() == np.signbit(want).tolist()


# -- budget-partial detection ----------------------------------------------

BUDGET_RULES = [
    FD(["a"], ["b"]),
    OD([("a", "<=")], [("b", "<=")]),
    DC([pred2("a", "="), pred2("b", "!=")]),
    DC([predc("a", "=", 1)]),
    DD({"a": ("<=", 1.0)}, {"c": (">", 0.0)}),
    MD({"a": 1.0}, ["c"]),
    NED({"b": 1.0}, {"c": 0.5}),
]


@settings(max_examples=150, deadline=None)
@given(hostile_relations(), st.integers(min_value=0, max_value=300))
def test_budget_partial_report_is_a_prefix(relation, k):
    """Under ``max_pairs=k`` the report holds a prefix of the rules in
    rule order, each exactly as in the full run and the oracle, and is
    flagged partial exactly when a rule was cut."""
    detector = Detector(BUDGET_RULES)
    full = detector.detect(relation)
    with governed(Budget(max_pairs=k)):
        partial = detector.detect(relation)
    labels = [rule.label() for rule in BUDGET_RULES]
    done = len(partial.per_rule)
    assert set(partial.per_rule) == set(labels[:done])
    assert partial.complete == (done == len(BUDGET_RULES))
    assert (partial.exhausted == "") == partial.complete
    for rule in BUDGET_RULES[:done]:
        got = partial.per_rule[rule.label()]
        assert list(got) == list(full.per_rule[rule.label()])
        assert oracle.comparable(rule, got) == oracle.comparable(
            rule, oracle.violations(rule, relation)
        )


# -- repro check end to end ------------------------------------------------

HOTEL_RULES = os.path.join(
    os.path.dirname(__file__), os.pardir, "examples", "hotel_rules.json"
)


def _hotel_csv(path, seed, noise):
    """Hotels whose address fixes the city and whose name fixes a price
    band; with ``noise`` some cities are misspelt or blank and some
    prices leave the band or go negative."""
    import random

    rng = random.Random(seed)
    city = {"1 Main St": "Boston", "2 Oak Ave": "Austin",
            "3 Pine Rd": "Denver", "4 Elm St": "Boston"}
    base = {"Hilton": 100, "Hyatt": 300, "Marriott": 2000}
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["name", "address", "city", "price"])
        for __ in range(30):
            address = rng.choice(sorted(city))
            name = rng.choice(sorted(base))
            town, price = city[address], base[name] + rng.randint(0, 400)
            if rng.random() < noise:
                town = rng.choice(["Bostn", "Austn", "NYC", ""])
            if rng.random() < noise:
                price = rng.choice([-5, price + 900, ""])
            writer.writerow([name, address, town, price])


@pytest.mark.parametrize("seed,noise", [(1, 0.0), (2, 0.0), (3, 0.2),
                                        (4, 0.2), (5, 0.5)])
def test_check_cli_matches_oracle(tmp_path, capsys, seed, noise):
    path = tmp_path / "hotels.csv"
    _hotel_csv(path, seed, noise)
    code = main(["check", str(path), "--rules", HOTEL_RULES])
    status = [
        line for line in capsys.readouterr().out.splitlines()
        if not line.startswith("  ")
    ]
    relation = oracle.load_relation(path)
    rules = load_rules(HOTEL_RULES)
    want = []
    for rule in rules:
        n = len(oracle.violations(rule, relation))
        want.append(f"[FAIL] {rule}: {n} violations" if n else f"[ok]   {rule}")
    assert status == want
    assert code == (1 if any(w.startswith("[FAIL]") for w in want) else 0)
