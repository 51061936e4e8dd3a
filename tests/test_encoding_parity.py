"""Property tests: the encoded substrate must agree with value-tuple grouping.

The dictionary-encoded substrate (``repro.relation.encoding``) implements
group-by, stripped-partition construction, FastFD difference sets and FASTDC
evidence sets over integer codes.  These hypothesis tests drive random
relations — including ``None`` cells, NaN, bools, and mixed int/float/str
values — through it and through the value-tuple reference
(:class:`tests.oracle.NaiveRelation`, and the per-pair sweeps FastFD and
FASTDC keep for inputs their kernels refuse) and require bit-identical
results.
"""

from __future__ import annotations


from hypothesis import given, settings, strategies as st

from repro.discovery.dc_discovery import (
    _evidence_sets_naive,
    build_predicate_space,
    evidence_sets,
)
from repro.discovery.fastfd import _difference_sets_naive, difference_sets
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    StrippedPartition,
)
from tests.oracle import NaiveRelation

# A single shared NaN object: dict-key semantics (identity shortcut) make
# repeated occurrences group together in a value-tuple dict, and the
# codebook reproduces exactly that.
NAN = float("nan")

MIXED = st.sampled_from(
    [None, 0, 1, 2, 3, True, False, 1.0, 2.5, -1, "x", "y", "", NAN]
)
NUMERIC = st.sampled_from(
    [None, 0, 1, 2, -3, 7, 1.5, 2.5, -0.5, True, NAN, 1 << 60]
)


@st.composite
def relations(draw, values=MIXED, max_cols=4, max_rows=25, numerical=False):
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    dtype = (
        AttributeType.NUMERICAL if numerical else AttributeType.CATEGORICAL
    )
    schema = Schema([Attribute(f"A{c}", dtype) for c in range(n_cols)])
    rows = [
        tuple(draw(values) for __ in range(n_cols)) for __ in range(n_rows)
    ]
    return Relation.from_rows(schema, rows)


def _both_modes(r, fn):
    """``(fn(value-tuple relation), fn(encoded relation))``."""
    return fn(NaiveRelation.of(r)), fn(r)


@settings(max_examples=120, deadline=None)
@given(relations())
def test_group_by_parity(r):
    names = r.schema.names()
    for attrs in (names, names[:1], names[-1:]):
        naive, encoded = _both_modes(r, lambda s: s.group_by(attrs))
        assert naive == encoded
        # Insertion (first-occurrence) order of groups must match too.
        assert [sorted(g) for g in naive.values()] == [
            sorted(g) for g in encoded.values()
        ]


@settings(max_examples=120, deadline=None)
@given(relations())
def test_distinct_count_and_project_parity(r):
    names = r.schema.names()
    for attrs in (names, names[:1]):
        n_naive, n_encoded = _both_modes(r, lambda s: s.distinct_count(attrs))
        assert n_naive == n_encoded
        p_naive, p_encoded = _both_modes(r, lambda s: s.project(attrs))
        assert p_naive == p_encoded


@settings(max_examples=120, deadline=None)
@given(relations())
def test_stripped_partition_parity(r):
    names = r.schema.names()
    for attrs in (names, names[:1]):
        naive, encoded = _both_modes(
            r, lambda s: StrippedPartition.from_relation(s, attrs)
        )
        assert naive == encoded
        assert hash(naive) == hash(encoded)


@settings(max_examples=100, deadline=None)
@given(relations(max_cols=4, max_rows=18))
def test_difference_sets_parity(r):
    assert difference_sets(r) == _difference_sets_naive(r)


@settings(max_examples=40, deadline=None)
@given(relations(values=NUMERIC, max_cols=3, max_rows=10, numerical=True))
def test_evidence_sets_parity_numerical(r):
    space = build_predicate_space(r, cross_columns=True)
    assert evidence_sets(r, space) == _evidence_sets_naive(r, space)


@settings(max_examples=40, deadline=None)
@given(relations(max_cols=3, max_rows=10))
def test_evidence_sets_parity_categorical(r):
    space = build_predicate_space(r)
    assert evidence_sets(r, space) == _evidence_sets_naive(r, space)


def test_nan_groups_like_dict_keys():
    """Repeated occurrences of one NaN object share a group, like dicts."""
    schema = Schema([Attribute("A")])
    r = Relation.from_rows(schema, [(NAN,), (NAN,), (1,)])
    naive, encoded = _both_modes(r, lambda s: s.group_by(["A"]))
    assert naive == encoded
    assert sorted(len(g) for g in encoded.values()) == [1, 2]


def test_bool_int_float_share_codes():
    """1 == 1.0 == True must collapse to one group (dict equality)."""
    schema = Schema([Attribute("A")])
    r = Relation.from_rows(schema, [(1,), (1.0,), (True,), (2,)])
    naive, encoded = _both_modes(r, lambda s: s.group_by(["A"]))
    assert naive == encoded
    assert sorted(len(g) for g in encoded.values()) == [1, 3]
