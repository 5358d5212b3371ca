"""Three-engine equivalence: row, columnar and sqlite must agree everywhere.

The suite runs the shared SQL corpus (imported from ``test_engines`` so the
queries stay in one place), UA-labeled session queries, parameterized
statements and a seeded random query generator through all three registered
engines and asserts identical :class:`KRelation` contents -- annotations
included -- and identical certain/best-guess labels.  Plans outside the
SQLite engine's compilable fragment must *fall back* (logged warning, same
result), never error or diverge.

The attribute-annotation axis runs the same matrix one level up: an
attribute-mode corpus (selections, joins, DISTINCT, grouping and scalar
aggregation over ``[lower, best, upper]`` ranges) must produce identical
:class:`~repro.core.AttributeBoundsRelation` fragments -- ranges and
multiplicity triples both -- on every engine, with and without the
optimizer.
"""

from __future__ import annotations

import logging
import random
from typing import List

import pytest

import repro
from repro.db import algebra
from repro.db.database import Database
from repro.db.evaluator import evaluate
from repro.db.relation import KRelation, bag_relation, set_relation
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.db.sql import parse_query
from repro.semirings import BOOLEAN, NATURAL

from test_engines import QUERIES

ENGINES = ("row", "columnar", "sqlite")


# -- fixtures -------------------------------------------------------------------


@pytest.fixture
def store() -> Database:
    """The same store shape as ``test_engines`` (joins, NULLs, duplicates)."""
    db = Database(NATURAL, "store")
    db.add_relation(bag_relation(
        RelationSchema("items", [
            Attribute("item_id", DataType.INTEGER),
            Attribute("name", DataType.STRING),
            Attribute("price", DataType.FLOAT),
            Attribute("category", DataType.STRING),
        ]),
        [
            (1, "apple", 1.5, "fruit"),
            (2, "banana", 0.5, "fruit"),
            (3, "carrot", None, "veg"),
            (4, "donut", 2.5, "bakery"),
            (4, "donut", 2.5, "bakery"),
            (5, "egg", 0.25, None),
        ],
    ))
    db.add_relation(bag_relation(
        RelationSchema("sales", [
            Attribute("sale_id", DataType.INTEGER),
            Attribute("item_id", DataType.INTEGER),
            Attribute("qty", DataType.INTEGER),
        ]),
        [(100, 1, 3), (101, 1, 1), (102, 2, 2), (103, 3, 5),
         (104, None, 7), (105, 9, 1), (105, 9, 1)],
    ))
    return db


def _assert_all_engines_agree(plan: algebra.Operator,
                              database: Database) -> KRelation:
    results = []
    for engine in ENGINES:
        for optimize in (False, True):
            results.append(
                evaluate(plan, database, engine=engine, optimize=optimize)
            )
    baseline = results[0]
    for other in results[1:]:
        assert other == baseline
    return baseline


# -- the shared SQL corpus -------------------------------------------------------


@pytest.mark.parametrize("sql", QUERIES)
def test_sql_corpus_three_engine_equivalence(store, sql):
    plan = parse_query(sql, store.schema)
    _assert_all_engines_agree(plan, store)


def test_nary_least_greatest_ignore_nulls_on_every_engine():
    db = Database(NATURAL, "extrema")
    db.add_relation(bag_relation(
        RelationSchema("t", [Attribute(name, DataType.INTEGER) for name in "abc"]),
        [(1, 2, 3), (None, 5, 4), (7, None, None), (None, None, None),
         (2, None, 1), (3, 3, None)],
    ))
    plan = parse_query(
        "SELECT least(a, b, c) AS low, greatest(a, b, c) AS high, "
        "least(a) AS one FROM t", db.schema)
    result = _assert_all_engines_agree(plan, db)
    assert sorted(result.rows(), key=repr) == sorted(
        [(1, 3, 1), (4, 5, None), (7, 7, 7), (None, None, None),
         (1, 2, 2), (3, 3, 3)], key=repr)


def test_set_semantics_three_engine_equivalence():
    db = Database(BOOLEAN, "sets")
    db.add_relation(set_relation(
        RelationSchema("r", ["a", "b"]), [(1, "x"), (2, "y"), (3, "z")]
    ))
    db.add_relation(set_relation(
        RelationSchema("s", ["a", "c"]), [(1, True), (3, False), (4, True)]
    ))
    for sql in [
        "SELECT r.b FROM r, s WHERE r.a = s.a",
        "SELECT DISTINCT b FROM r",
        "SELECT a, count(*) AS n FROM r GROUP BY a",
        "SELECT b FROM r WHERE a < 3",
    ]:
        plan = parse_query(sql, db.schema)
        _assert_all_engines_agree(plan, db)
    # Set-semantics difference/intersection (monus and glb over B):
    # r EXCEPT/INTERSECT a filtered copy of itself.
    from repro.db.expressions import Column, Comparison, Literal

    left = algebra.RelationRef("r")
    filtered = algebra.Selection(left, Comparison("<", Column("a"), Literal(3)))
    for plan in (algebra.Difference(left, filtered),
                 algebra.Intersection(left, filtered)):
        _assert_all_engines_agree(plan, db)


def test_bag_difference_intersection_union_equivalence(store):
    from repro.db.expressions import Column, Comparison, Literal

    left = algebra.RelationRef("sales")
    right = algebra.Selection(
        algebra.RelationRef("sales"),
        Comparison(">", Column("qty"), Literal(2)),
    )
    for plan in (
        algebra.Difference(left, right),
        algebra.Intersection(left, right),
        algebra.Union(left, right),
        algebra.CrossProduct(algebra.RelationRef("items"), right),
        algebra.Union(algebra.Union(left, right), right),
    ):
        _assert_all_engines_agree(plan, store)


# -- UA labels through the session ------------------------------------------------


def _ua_sessions(name: str) -> List[repro.Connection]:
    from repro.incomplete import TIDatabase

    tidb = TIDatabase("readings")
    readings = tidb.create_relation(
        RelationSchema("readings", ["sensor", "temp"])
    )
    readings.add(("s1", 71), probability=1.0)
    readings.add(("s2", 64), probability=0.7)
    readings.add(("s3", 99), probability=0.4)
    readings.add(("s4", 71), probability=1.0)
    sessions = []
    for engine in ENGINES:
        conn = repro.connect(engine=engine, name=f"{name}-{engine}")
        conn.register_tidb(tidb)
        sessions.append(conn)
    return sessions


UA_QUERIES = [
    "SELECT sensor, temp FROM readings",
    "SELECT sensor FROM readings WHERE temp >= 70",
    "SELECT DISTINCT temp FROM readings",
    "SELECT sensor, temp FROM readings ORDER BY temp DESC LIMIT 2",
    "SELECT r1.sensor, r2.sensor FROM readings r1, readings r2 "
    "WHERE r1.temp = r2.temp",
]


@pytest.mark.parametrize("sql", UA_QUERIES)
def test_ua_labels_identical_across_engines(sql):
    sessions = _ua_sessions("labels")
    results = [conn.query(sql) for conn in sessions]
    baseline = results[0]
    for other in results[1:]:
        assert other.relation == baseline.relation
        assert other.labeled_rows() == baseline.labeled_rows()
        assert other.certain_rows() == baseline.certain_rows()


def test_direct_mode_agrees_via_fallback(caplog):
    """Direct K_UA evaluation uses pair annotations: sqlite must fall back
    to the columnar engine and still match, with a logged warning."""
    sessions = _ua_sessions("direct")
    sql = "SELECT sensor FROM readings WHERE temp >= 70"
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        results = [conn.query_direct(sql) for conn in sessions]
    assert any("falling back" in record.message for record in caplog.records)
    for other in results[1:]:
        assert other.relation == results[0].relation
        assert other.labeled_rows() == results[0].labeled_rows()


def test_parameterized_results_identical_across_engines():
    sessions = _ua_sessions("params")
    sql = "SELECT sensor, temp FROM readings WHERE temp >= :lo LIMIT :n"
    for params in ({"lo": 60, "n": 2}, {"lo": 90, "n": 5}, {"lo": 0, "n": 0}):
        results = [conn.query(sql, params) for conn in sessions]
        for other in results[1:]:
            assert other.relation == results[0].relation
            assert other.labeled_rows() == results[0].labeled_rows()


# -- attribute-annotation axis -----------------------------------------------------


def _attribute_sessions(name: str) -> List[repro.Connection]:
    """One session per (engine, optimizer) cell over one shared AU source.

    The source mixes a native range relation ``t(g, x)`` with a tuple-level
    UA relation ``readings`` entering through the degenerate conversion, so
    the axis covers both attribute-mode entry paths.
    """
    from repro.core import AttributeBoundsRelation
    from repro.core.uadb import UADatabase, UARelation

    native = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("g", DataType.INTEGER), Attribute("x", DataType.INTEGER))))
    native.add_bounded(((1, 1, 1), (5, 7, 9)), (1, 1, 1))
    native.add_bounded(((1, 1, 2), (0, 1, 3)), (0, 1, 2))
    native.add_bounded(((3, 3, 3), (4, 4, 4)), (1, 2, 2))
    uadb = UADatabase(NATURAL, "attr_axis")
    readings = UARelation(RelationSchema("readings", [
        Attribute("sensor", DataType.INTEGER),
        Attribute("temp", DataType.INTEGER),
    ]), uadb.ua_semiring)
    readings.add_tuple((1, 71), certain=1, determinized=1)
    readings.add_tuple((2, 64), certain=0, determinized=1)
    readings.add_tuple((3, 99), certain=0, determinized=2)
    uadb.add_relation(readings)
    sessions = []
    for engine in ENGINES:
        for optimize in (False, True):
            conn = repro.connect(engine=engine, optimize=optimize,
                                 name=f"{name}-{engine}-{optimize}")
            conn.register_attribute_relation(native)
            conn.register_ua_database(uadb)
            sessions.append(conn)
    return sessions


ATTRIBUTE_QUERIES = [
    "SELECT g, x FROM t",
    "SELECT g, x FROM t WHERE x + g > 5",
    "SELECT DISTINCT g FROM t",
    "SELECT x * 2 AS d FROM t WHERE g <= 2",
    "SELECT g, sum(x) AS total, count(*) AS n FROM t GROUP BY g",
    "SELECT min(x) AS lo, max(x) AS hi FROM t",
    "SELECT g, temp FROM t, readings WHERE g = sensor",
    "SELECT g, sum(temp) AS total FROM t, readings "
    "WHERE g = sensor GROUP BY g",
    "SELECT g FROM t UNION ALL SELECT sensor FROM readings",
    "SELECT sensor, temp FROM readings WHERE temp >= :lo",
]


@pytest.mark.parametrize("sql", ATTRIBUTE_QUERIES)
def test_attribute_bounds_identical_across_engines(sql):
    """Every engine cell produces the same fragments, bounds and labels."""
    sessions = _attribute_sessions("attr")
    params = {"lo": 70} if ":lo" in sql else None
    try:
        results = [conn.query_bounds(sql, params) for conn in sessions]
        baseline = results[0]
        baseline.relation.check_invariant()
        for other in results[1:]:
            assert other.relation == baseline.relation
            assert other.labeled_rows() == baseline.labeled_rows()
            assert other.certain_rows() == baseline.certain_rows()
            assert other.bounded_rows() == baseline.bounded_rows()
    finally:
        for conn in sessions:
            conn.close()


def test_attribute_connection_mode_matches_query_bounds():
    """annotation="attribute" sessions route plain query() to the same path."""
    conn_default = repro.connect(engine="row", name="attr-default")
    conn_attr = repro.connect(engine="row", annotation="attribute",
                              name="attr-session")
    from repro.core import AttributeBoundsRelation

    native = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("g", DataType.INTEGER), Attribute("x", DataType.INTEGER))))
    native.add_bounded(((1, 1, 2), (0, 1, 3)), (0, 1, 2))
    try:
        conn_default.register_attribute_relation(native)
        conn_attr.register_attribute_relation(native)
        sql = "SELECT g, sum(x) AS s FROM t GROUP BY g"
        via_bounds = conn_default.query_bounds(sql)
        via_mode = conn_attr.query(sql)
        assert via_mode.relation == via_bounds.relation
    finally:
        conn_default.close()
        conn_attr.close()


# -- randomized property suite ----------------------------------------------------


def _random_database(rng: random.Random) -> Database:
    db = Database(NATURAL, "rand")
    r = KRelation(RelationSchema("r", [
        Attribute("a", DataType.INTEGER),
        Attribute("b", DataType.STRING),
        Attribute("c", DataType.FLOAT),
    ]), NATURAL)
    for _ in range(rng.randint(0, 30)):
        row = (
            rng.randint(0, 6),
            rng.choice(["x", "y", "z", "xyz", None]),
            rng.choice([None, 0.5, 1.5, 2.5, 10.0]),
        )
        r.add(row, rng.randint(1, 3))
    s = KRelation(RelationSchema("s", [
        Attribute("a", DataType.INTEGER),
        Attribute("d", DataType.INTEGER),
    ]), NATURAL)
    for _ in range(rng.randint(0, 30)):
        s.add((rng.randint(0, 6), rng.randint(0, 3)), rng.randint(1, 2))
    db.add_relation(r)
    db.add_relation(s)
    return db


def _random_query(rng: random.Random) -> str:
    """A random (typed) SQL query over r(a, b, c) and s(a, d)."""
    predicates = [
        f"a {rng.choice(['<', '<=', '=', '>=', '>'])} {rng.randint(0, 6)}",
        f"b IN ({', '.join(repr(v) for v in rng.sample(['x', 'y', 'z', 'xyz'], rng.randint(1, 3)))})",
        "b IS NOT NULL",
        "c IS NULL",
        f"c BETWEEN {rng.choice([0.0, 0.5, 1.0])} AND {rng.choice([1.5, 2.5, 10.0])}",
        "b LIKE '%x%'",
    ]
    join_predicates = [
        f"r.a {rng.choice(['<', '>='])} {rng.randint(0, 6)}",
        f"s.d >= {rng.randint(0, 3)}",
        "r.b IS NOT NULL",
        f"r.a + s.d > {rng.randint(0, 8)}",
    ]
    shape = rng.choice(["single", "single", "join", "aggregate", "limit", "union"])
    if shape == "single":
        where = " AND ".join(rng.sample(predicates, rng.randint(1, 2)))
        items = rng.choice(["a, b, c", "b, a", "a, c * 2 AS c2",
                            "CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END AS tier, a"])
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        return f"SELECT {distinct}{items} FROM r WHERE {where}"
    if shape == "join":
        where = rng.choice(join_predicates)
        return (f"SELECT r.b, s.d FROM r, s "
                f"WHERE r.a = s.a AND {where}")
    if shape == "aggregate":
        agg = rng.choice(["count(*) AS n", "sum(c) AS total",
                          "min(c) AS lo, max(a) AS hi", "avg(a) AS mean"])
        return f"SELECT b, {agg} FROM r GROUP BY b"
    if shape == "limit":
        direction = rng.choice(["ASC", "DESC"])
        return (f"SELECT a, b FROM r ORDER BY a {direction}, b "
                f"LIMIT {rng.randint(0, 5)}")
    return ("SELECT a FROM r WHERE a < 3 "
            "UNION ALL SELECT a FROM r WHERE a >= 3 "
            "UNION ALL SELECT d FROM s")


@pytest.mark.parametrize("seed", range(20))
def test_randomized_query_three_engine_equivalence(seed):
    rng = random.Random(seed)
    db = _random_database(rng)
    for _ in range(5):
        sql = _random_query(rng)
        plan = parse_query(sql, db.schema)
        _assert_all_engines_agree(plan, db)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_parameterized_limit_equivalence(seed):
    rng = random.Random(1000 + seed)
    db = _random_database(rng)
    plan = parse_query("SELECT a, b FROM r ORDER BY a LIMIT ?", db.schema)
    for count in (0, 1, rng.randint(0, 10)):
        results = [
            evaluate(plan, db, engine=engine, optimize=optimize, params=[count])
            for engine in ENGINES for optimize in (False, True)
        ]
        for other in results[1:]:
            assert other == results[0]
