"""Randomized bound-arithmetic properties of the attribute-level rewriting.

Hypothesis-style (seeded ``random``, no external dependency) property
tests over :func:`repro.connect`'s attribute path:

* **ordering**: every operator -- ``+``, ``*``, ``least``/``greatest``,
  selection, DISTINCT and the aggregate folds (SUM/COUNT/MIN/MAX) --
  preserves ``lower <= best <= upper`` on every output range;
* **containment**: for randomly sampled concrete values inside the input
  ranges, the deterministic result of each expression lies inside the
  produced output range (the per-expression micro-version of the full
  world-enumeration oracle in ``tests/differential.py``);
* **degeneracy**: tuple-level UA annotations are the special case of
  collapsed ranges -- a UA relation queried through the attribute path
  yields ``lower == best == upper`` everywhere, existence certainty
  matching the tuple-level labels, and aggregation (which the tuple-level
  rewriting rejects outright) still produces finite, correct bounds.
"""

from __future__ import annotations

import itertools
import random

import pytest

import repro
from repro.core import AttributeBoundsRelation, RangeError
from repro.core.attribute_bounds import AttributeLabel
from repro.core.rewriter import RewriteError
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.core.uadb import UADatabase, UARelation
from repro.semirings import NATURAL

TRIALS = 25


def _random_range(rng: random.Random, low: int = -6, high: int = 9):
    """A random integer ``(lower, best, upper)`` triple (may be collapsed)."""
    bounds = sorted(rng.randint(low, high) for _ in range(3))
    if rng.random() < 0.4:
        return (bounds[1], bounds[1], bounds[1])
    return tuple(bounds)


def _pair_connection(x_range, y_range):
    """A session holding one fragment ``t(x, y)`` with the given ranges."""
    connection = repro.connect(engine="row", name="bounds_prop")
    relation = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("x", DataType.INTEGER), Attribute("y", DataType.INTEGER))))
    relation.add_bounded((x_range, y_range), (1, 1, 1))
    connection.register_attribute_relation(relation)
    return connection


@pytest.mark.parametrize("trial", range(TRIALS))
@pytest.mark.parametrize("expression,compute", [
    ("x + y", lambda x, y: x + y),
    ("x - y", lambda x, y: x - y),
    ("x * y", lambda x, y: x * y),
    ("least(x, y)", min),
    ("greatest(x, y)", max),
])
def test_expression_bounds_are_ordered_and_containing(trial, expression,
                                                      compute):
    """Arithmetic over ranges: ordered output bounds covering every value.

    Multiplication is the interesting case -- signs flip which corner is
    extreme -- so input ranges deliberately straddle zero.
    """
    rng = random.Random(hash((expression, trial)) & 0xFFFFFF)
    x_range, y_range = _random_range(rng), _random_range(rng)
    connection = _pair_connection(x_range, y_range)
    try:
        result = connection.query_bounds(f"SELECT {expression} AS e FROM t")
        ((ranges, multiplicity),) = result.relation.bounded_rows()
        (lower, best, upper), = ranges
        assert lower <= best <= upper
        assert multiplicity == (1, 1, 1)
        for x in range(x_range[0], x_range[2] + 1):
            for y in range(y_range[0], y_range[2] + 1):
                assert lower <= compute(x, y) <= upper, \
                    f"{expression} at x={x} y={y} escapes [{lower}, {upper}]"
        assert best == compute(x_range[1], y_range[1])
    finally:
        connection.close()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_aggregate_folds_preserve_ordering_and_contain_worlds(trial):
    """SUM/COUNT/MIN/MAX bounds cover every sampled world's aggregate."""
    rng = random.Random(9000 + trial)
    relation = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("g", DataType.INTEGER), Attribute("x", DataType.INTEGER))))
    fragments = []
    for _ in range(rng.randint(1, 3)):
        ranges = ((0, 0, 0), _random_range(rng, low=0, high=8))
        multiplicity = rng.choice(((1, 1, 1), (0, 1, 1), (1, 1, 2)))
        relation.add_bounded(ranges, multiplicity)
    for ranges, multiplicity in relation.items():
        fragments.append((ranges, multiplicity))
    connection = repro.connect(engine="row", name="agg_prop")
    try:
        connection.register_attribute_relation(relation)
        result = connection.query_bounds(
            "SELECT sum(x) AS s, count(*) AS n, min(x) AS lo, max(x) AS hi "
            "FROM t")
        rows = result.relation.bounded_rows()
        assert len(rows) == 1
        (s_range, n_range, lo_range, hi_range), _ = rows[0]
        for bounds in (s_range, n_range, lo_range, hi_range):
            assert bounds[0] <= bounds[1] <= bounds[2]
        for _ in range(40):  # sampled worlds
            bag = []
            for (_, x_range), (m_lb, _, m_ub) in fragments:
                for _ in range(rng.randint(m_lb, m_ub)):
                    bag.append(rng.randint(x_range[0], x_range[2]))
            if not bag:
                continue  # empty world -> no result row (m_lb allows it)
            assert s_range[0] <= sum(bag) <= s_range[2]
            assert n_range[0] <= len(bag) <= n_range[2]
            assert lo_range[0] <= min(bag) <= lo_range[2]
            assert hi_range[0] <= max(bag) <= hi_range[2]
    finally:
        connection.close()


def _random_ua_connection(rng: random.Random):
    """A session over a random tuple-level UA relation ``r(a, v)``."""
    uadb = UADatabase(NATURAL, "degenerate")
    r = UARelation(RelationSchema("r", [
        Attribute("a", DataType.INTEGER),
        Attribute("v", DataType.INTEGER),
    ]), uadb.ua_semiring)
    for _ in range(rng.randint(2, 6)):
        determinized = rng.randint(1, 3)
        r.add_tuple((rng.randint(0, 4), rng.randint(0, 9)),
                    certain=rng.randint(0, determinized),
                    determinized=determinized)
    uadb.add_relation(r)
    connection = repro.connect(engine="row", name="ua_degenerate")
    connection.register_ua_database(uadb)
    return connection


@pytest.mark.parametrize("trial", range(TRIALS))
def test_tuple_level_labels_are_the_collapsed_special_case(trial):
    """UA relations through the attribute path: collapsed ranges, same labels.

    ``lower == best == upper`` on every attribute (so no attribute is
    uncertain) and per-row existence certainty equals the tuple-level
    rewriting's certain flag -- tuple-level UA is exactly the degenerate
    attribute annotation.
    """
    rng = random.Random(4242 + trial)
    connection = _random_ua_connection(rng)
    sql = f"SELECT a, v FROM r WHERE a <= {rng.randint(0, 4)}"
    try:
        bounded = connection.query_bounds(sql)
        for ranges, _ in bounded.relation.bounded_rows():
            for lower, best, upper in ranges:
                assert lower == best == upper
        attribute_labels = dict(bounded.labeled_rows())
        tuple_labels = dict(connection.query(sql).labeled_rows())
        assert set(attribute_labels) == set(tuple_labels)
        for row, label in attribute_labels.items():
            assert isinstance(label, AttributeLabel)
            assert not label.uncertain_attributes
            assert label.existence_certain == tuple_labels[row]
    finally:
        connection.close()


def test_aggregation_rejected_by_tuple_level_has_finite_attribute_bounds():
    """The headline expressiveness win, pinned end to end.

    A fully uncertain relation (no tuple certain) makes tuple-level UA
    useless for aggregation -- the rewriting rejects the plan outright.
    The attribute path answers the same SQL with finite bounds, verified
    here against exhaustive enumeration of the input's possible worlds.
    """
    uadb = UADatabase(NATURAL, "uncertain_agg")
    r = UARelation(RelationSchema("r", [
        Attribute("a", DataType.INTEGER),
        Attribute("v", DataType.INTEGER),
    ]), uadb.ua_semiring)
    rows = [((1, 10), 0, 1), ((1, 20), 0, 1), ((2, 5), 0, 2)]
    for row, certain, determinized in rows:
        r.add_tuple(row, certain=certain, determinized=determinized)
    uadb.add_relation(r)
    connection = repro.connect(engine="row", name="agg_win")
    connection.register_ua_database(uadb)
    sql = "SELECT a, sum(v) AS total FROM r GROUP BY a"
    try:
        with pytest.raises(RewriteError):
            connection.query(sql)
        result = connection.query_bounds(sql)
        fragments = result.relation.bounded_rows()
        assert fragments, "attribute path must produce an answer"
        for ranges, (m_lb, m_bg, m_ub) in fragments:
            for lower, best, upper in ranges:
                assert lower is not None and upper is not None  # finite
                assert lower <= best <= upper
            assert 0 <= m_lb <= m_bg <= m_ub
        by_group = {ranges[0][1]: ranges[1] for ranges, _ in fragments}
        # Possible worlds: each row appears 0..determinized times.
        for counts in itertools.product(*(
                range(0, determinized + 1) for _, _, determinized in rows)):
            sums = {}
            for (row, _, _), count in zip(rows, counts):
                if count:
                    sums[row[0]] = sums.get(row[0], 0) + row[1] * count
            for group, total in sums.items():
                lower, _, upper = by_group[group]
                assert lower <= total <= upper
    finally:
        connection.close()


def test_invariant_checks_reject_malformed_ranges():
    """check_range/check_multiplicity guard the encoding's contracts."""
    relation = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("x", DataType.INTEGER),)))
    with pytest.raises(RangeError):
        relation.add_bounded(((3, 2, 1),))          # unordered range
    with pytest.raises(RangeError):
        relation.add_bounded(((None, 2, 3),))       # mixed nullability
    with pytest.raises(RangeError):
        relation.add_bounded(((1, 1, 1),), (2, 1, 1))   # m_lb > m_bg
    with pytest.raises(RangeError):
        relation.add_bounded(((1, 1, 1),), (-1, 0, 1))  # negative count
