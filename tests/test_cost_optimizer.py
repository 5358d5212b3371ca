"""Tests for the statistics layer, cardinality estimation, join reordering,
the ``auto`` engine name, and EXPLAIN.

Three flavors: unit tests of the sketches and selectivity rules,
integration tests through ``repro.connect`` (stats maintenance, plan-cache
invalidation, engine dispatch), and property-style tests pinning estimated
cardinalities against actual ones over randomized tables.
"""

from __future__ import annotations

import logging
import random

import pytest

import repro
from repro.db import algebra, cost
from repro.db.database import Database
from repro.db.engine import dispatch_counts, get_engine, reset_dispatch_counts
from repro.db.evaluator import evaluate
from repro.db.optimizer import optimize_plan, reorder_joins
from repro.db.relation import bag_relation
from repro.db.schema import RelationSchema
from repro.db.sql import parse_query
from repro.db.stats import SKETCH_SIZE, DistinctSketch, StatsCatalog, TableStats
from repro.semirings import NATURAL

logger = logging.getLogger(__name__)


# -- helpers --------------------------------------------------------------------


def _relation(name, columns, rows):
    return bag_relation(RelationSchema(name, columns), rows)


def _load(conn, name, columns, rows):
    types = ", ".join(f"{c} any" for c in columns)
    conn.execute(f"CREATE TABLE {name} ({types})")
    placeholders = ", ".join("?" for _ in columns)
    conn.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)


# -- distinct sketches ----------------------------------------------------------


def test_sketch_exact_below_capacity():
    sketch = DistinctSketch()
    for value in range(100):
        sketch.add(value)
        sketch.add(value)  # duplicates never inflate the estimate
    assert sketch.estimate() == 100


@pytest.mark.parametrize("n", [1_000, 20_000])
def test_sketch_kmv_estimate_within_bounds(n):
    sketch = DistinctSketch()
    for value in range(n):
        sketch.add(f"value-{value}")
    estimate = sketch.estimate()
    # KMV standard error is ~1/sqrt(k); allow a generous 4-sigma band.
    error = abs(estimate - n) / n
    assert error < 4 / (SKETCH_SIZE ** 0.5), (estimate, n)


def test_sketch_json_roundtrip_preserves_estimate():
    sketch = DistinctSketch()
    for value in range(5_000):
        sketch.add(value)
    restored = DistinctSketch.from_json(sketch.to_json())
    assert restored.estimate() == sketch.estimate()
    assert restored.saturated
    # Merging the restored sketch with more values keeps working.
    for value in range(5_000, 6_000):
        restored.add(value)
    assert restored.estimate() > sketch.estimate() * 0.9


def test_sketch_hash_is_process_stable():
    # crc32-of-repr, not the salted builtin hash: fixed expected hashes.
    sketch = DistinctSketch()
    sketch.add("abc")
    restored = DistinctSketch.from_json(
        {"k": SKETCH_SIZE, "saturated": False,
         "hashes": sorted(sketch.hashes)})
    sketch2 = DistinctSketch()
    sketch2.add("abc")
    assert restored.hashes == sketch2.hashes


# -- table statistics -----------------------------------------------------------


def test_table_stats_collect_and_incremental_update():
    relation = _relation("t", ["a", "b"], [(1, "x"), (2, "y"), (3, None)])
    stats = TableStats.collect(relation)
    assert stats.row_count == 3
    assert stats.column("a").ndv == 3
    assert stats.column("a").minimum == 1
    assert stats.column("a").maximum == 3
    assert stats.column("b").null_fraction == pytest.approx(1 / 3)
    assert stats.fresh(relation)

    stats.update_rows([(4, "z"), (5, None)])
    assert stats.row_count == 5
    assert stats.column("a").ndv == 5
    assert stats.column("a").maximum == 5
    assert stats.column("b").null_fraction == pytest.approx(2 / 5)


def test_table_stats_mixed_types_give_up_on_range():
    relation = _relation("t", ["a"], [(1,), ("x",), (2,)])
    stats = TableStats.collect(relation)
    column = stats.column("a")
    assert not column.orderable
    assert column.minimum is None and column.maximum is None
    assert column.ndv == 3  # NDV survives the mixed types


def test_stats_catalog_refresh_repairs_out_of_band_mutation():
    db = Database(NATURAL, "db")
    relation = _relation("t", ["a"], [(1,), (2,)])
    db.add_relation(relation)
    catalog = StatsCatalog()
    catalog.collect(relation)
    assert catalog.fresh(relation)
    relation.add((3,), 1)  # mutate behind the catalog's back
    assert not catalog.fresh(relation)
    catalog.refresh(db)
    assert catalog.fresh(relation)
    assert catalog.table_stats("t").row_count == 3


# -- cardinality estimation ------------------------------------------------------


def _plan_and_stats(sql, tables):
    db = Database(NATURAL, "db")
    catalog = StatsCatalog()
    for name, columns, rows in tables:
        relation = _relation(name, columns, rows)
        db.add_relation(relation)
        catalog.collect(relation)
    plan = parse_query(sql, db.schema)
    return plan, db, catalog


def test_equality_selectivity_uses_ndv():
    rows = [(i % 10, i) for i in range(100)]
    plan, _db, catalog = _plan_and_stats(
        "SELECT k FROM t WHERE g = 3", [("t", ["g", "k"], rows)])
    estimate = cost.estimate_cardinality(plan, catalog)
    assert estimate == pytest.approx(10.0)  # 100 rows / NDV 10


def test_estimates_degrade_without_stats():
    plan, _db, _catalog = _plan_and_stats(
        "SELECT k FROM t WHERE g = 3", [("t", ["g", "k"], [(1, 1)])])
    estimate = cost.estimate_cardinality(plan, None)
    assert estimate == pytest.approx(
        cost.DEFAULT_ROW_COUNT * cost.DEFAULT_EQ_SELECTIVITY)


@pytest.mark.parametrize("seed", range(6))
def test_stats_accuracy_on_random_tables(seed):
    """Property test: estimated cardinalities track actual ones.

    Selections with equality/range predicates over randomized tables must
    come out within an order of magnitude of the true result size -- the
    precision the greedy reorderer needs to rank join orders, logged per
    seed so drift is visible in test output.
    """
    rng = random.Random(seed)
    num_rows = rng.randint(200, 800)
    ndv = rng.choice([5, 20, 80])
    rows = [(rng.randrange(ndv), rng.randrange(1000), rng.random())
            for _ in range(num_rows)]
    distinct_rows = sorted(set(rows))
    tables = [("t", ["g", "k", "v"], rows)]
    queries = [
        f"SELECT k FROM t WHERE g = {rng.randrange(ndv)}",
        f"SELECT k FROM t WHERE k < {rng.randrange(200, 800)}",
        f"SELECT k FROM t WHERE g = {rng.randrange(ndv)} AND k < 500",
    ]
    for sql in queries:
        plan, db, catalog = _plan_and_stats(sql, tables)
        estimated = cost.estimate_cardinality(plan, catalog)
        actual = len(evaluate(plan, db, engine="row", optimize=False))
        # Bound the multiplicative error; tiny results only need the
        # estimate to also be small.
        bound = max(10.0, actual * 10.0)
        logger.info("seed=%d sql=%r estimated=%.1f actual=%d",
                    seed, sql, estimated, actual)
        assert estimated <= max(bound, len(distinct_rows)), (sql, estimated, actual)
        if actual > 20:
            assert estimated >= actual / 10.0, (sql, estimated, actual)


# -- join reordering -------------------------------------------------------------


def _misordered_db():
    rng = random.Random(42)
    db = Database(NATURAL, "db")
    catalog = StatsCatalog()
    big1 = _relation("big1", ["a", "g1"],
                     [(i, rng.randrange(10)) for i in range(300)])
    big2 = _relation("big2", ["b", "g2"],
                     [(i, rng.randrange(10)) for i in range(300)])
    small = _relation("small", ["s", "g3"], [(i, i % 2) for i in range(3)])
    for relation in (big1, big2, small):
        db.add_relation(relation)
        catalog.collect(relation)
    return db, catalog


def test_reorder_starts_from_smallest_relation():
    db, catalog = _misordered_db()
    sql = ("SELECT b1.a, s.s FROM big1 b1, big2 b2, small s "
           "WHERE b1.g1 = b2.g2 AND b2.g2 = s.g3")
    plan = parse_query(sql, db.schema)
    baseline = optimize_plan(plan, db.schema)
    reordered = optimize_plan(plan, db.schema, stats=catalog)
    # Identical results (annotations included) despite the new join order.
    base = evaluate(baseline, db, engine="row", optimize=False)
    opt = evaluate(reordered, db, engine="row", optimize=False)
    assert sorted(base.items()) == sorted(opt.items())
    # The reordered plan is estimated to move (much) fewer rows.
    def estimated_rows(plan):
        return sum(rows for _, _, rows in cost.explain_rows(plan, catalog))

    assert estimated_rows(reordered) < estimated_rows(baseline)


def test_reorder_no_stats_is_identity():
    db, _catalog = _misordered_db()
    sql = "SELECT b1.a FROM big1 b1, big2 b2 WHERE b1.g1 = b2.g2"
    plan = parse_query(sql, db.schema)
    assert reorder_joins(plan, db.schema, None) is plan


@pytest.mark.parametrize("seed", range(4))
def test_reordered_plans_equivalent_on_random_joins(seed):
    """Property test: reordering never changes results or annotations."""
    rng = random.Random(seed)
    db = Database(NATURAL, "db")
    catalog = StatsCatalog()
    sizes = [rng.randint(2, 60) for _ in range(3)]
    for index, size in enumerate(sizes):
        relation = _relation(f"r{index}", [f"k{index}", "g"],
                             [(i, rng.randrange(4)) for i in range(size)])
        db.add_relation(relation)
        catalog.collect(relation)
    sql = ("SELECT r0.k0, r1.k1, r2.k2 FROM r0, r1, r2 "
           "WHERE r0.g = r1.g AND r1.g = r2.g")
    plan = parse_query(sql, db.schema)
    baseline = evaluate(plan, db, engine="row", optimize=False)
    for engine in ("row", "columnar"):
        optimized = optimize_plan(plan, db.schema, stats=catalog)
        result = evaluate(optimized, db, engine=engine, optimize=False)
        assert sorted(result.items()) == sorted(baseline.items()), engine


# -- the auto engine name ---------------------------------------------------------


def test_auto_is_the_sqlite_engine():
    """``auto`` once chose ``row`` for a 2-row table, 2.9x slower than sqlite."""
    assert get_engine("auto") is get_engine("sqlite")
    reset_dispatch_counts()
    conn = repro.connect(engine="auto")
    _load(conn, "t", ["a", "b"], [(1, 2), (2, 3)])
    assert conn.query("SELECT a FROM t WHERE b = 2").rows() == [(1,)]
    assert dispatch_counts() == {"sqlite": 1}
    conn.close()


# -- plan cache across writes ---------------------------------------------------


def test_insert_keeps_cached_plan():
    conn = repro.connect(engine="row")
    _load(conn, "t", ["a"], [(1,), (2,)])
    sql = "SELECT a FROM t WHERE a >= 1"
    conn.query(sql)
    before = conn.plan_cache.stats()
    conn.query(sql)
    assert conn.plan_cache.stats()["hits"] == before["hits"] + 1
    # An INSERT advances the data version, which no SELECT plan depends on:
    # the cached plan stays and its answer includes the row.
    conn.execute("INSERT INTO t VALUES (3)")
    rows = sorted(conn.query(sql).relation.rows())
    after = conn.plan_cache.stats()
    assert after["invalidations"] == before["invalidations"]
    assert after["hits"] == before["hits"] + 2
    assert rows == [(1,), (2,), (3,)]
    conn.close()


# -- EXPLAIN ---------------------------------------------------------------------


def test_explain_reports_plan_costs_and_engine():
    conn = repro.connect(engine="auto")
    _load(conn, "t", ["a", "b"], [(i, i % 5) for i in range(50)])
    report = conn.explain("SELECT a FROM t WHERE b = 2")
    assert set(report) == {"sql", "mode", "engine", "estimated_rows", "plan"}
    assert report["engine"] == "sqlite"
    assert report["plan"][0]["depth"] == 0
    assert any(line["operator"].startswith("Relation")
               and line["estimated_rows"] == pytest.approx(50.0)
               for line in report["plan"])
    # Equality selectivity applied: the root is ~ 50 / ndv(b) = 10 rows.
    assert report["estimated_rows"] == pytest.approx(10.0)
    conn.close()


def test_explain_sql_statement_returns_relation():
    conn = repro.connect(engine="row")
    _load(conn, "t", ["a"], [(1,), (2,)])
    result = conn.query("EXPLAIN SELECT a FROM t WHERE a = 1")
    rows = sorted(result.relation.rows())
    assert all(isinstance(step, int) for step, _ in rows)
    text = "\n".join(detail for _, detail in rows)
    assert "Relation(t)" in text
    assert rows[-1][1] == "engine: row"
    assert text.count("engine:") == 1
    # EXPLAIN never executes the wrapped statement, and nests are rejected.
    from repro.db.sql.lexer import SQLSyntaxError
    with pytest.raises(SQLSyntaxError):
        conn.query("EXPLAIN EXPLAIN SELECT a FROM t")
    conn.close()


def test_explain_statement_kind():
    conn = repro.connect(engine="row")
    _load(conn, "t", ["a"], [(1,)])
    assert conn.statement_kind("EXPLAIN SELECT a FROM t") == "explain"
    conn.close()
