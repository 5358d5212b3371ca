"""The SQLite engine: compilation, caching, fallback and parameter pass-through.

Result *equivalence* against the other engines is covered by the dedicated
three-engine suite in ``test_engine_equivalence.py``; this file tests the
machinery specific to the SQLite backend.
"""

from __future__ import annotations

import logging

import pytest

import repro
from repro.db import algebra
from repro.db.database import Database
from repro.db.engine import (
    SQLiteEngine, UnknownEngineError, dispatch_counts, get_engine,
)
from repro.db.engine.base import EvaluationError
from repro.db.engine.compiler import (
    NotSupportedError,
    annotation_sql,
    compile_plan,
    sql_literal,
)
from repro.db.evaluator import evaluate
from repro.db.expressions import Column, Comparison, Literal
from repro.db.params import ParameterError
from repro.db.relation import KRelation, bag_relation
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.db.sql import parse_query
from repro.semirings import BOOLEAN, FUZZY, NATURAL
from repro.semirings.ua import UASemiring


@pytest.fixture
def engine() -> SQLiteEngine:
    """A fresh engine instance (isolated caches and counters)."""
    return SQLiteEngine()


@pytest.fixture
def store() -> Database:
    db = Database(NATURAL, "store")
    db.add_relation(bag_relation(
        RelationSchema("items", [
            Attribute("item_id", DataType.INTEGER),
            Attribute("name", DataType.STRING),
            Attribute("price", DataType.FLOAT),
        ]),
        [(1, "apple", 1.5), (2, "banana", 0.5), (3, "carrot", None),
         (4, "donut", 2.5), (4, "donut", 2.5)],
    ))
    return db


# -- registration and selection ---------------------------------------------------


def test_sqlite_engine_is_registered():
    assert isinstance(get_engine("sqlite"), SQLiteEngine)


def test_unknown_engine_error_lists_registered_names():
    with pytest.raises(UnknownEngineError) as excinfo:
        get_engine("postgres")
    message = str(excinfo.value)
    for name in ("row", "columnar", "sqlite"):
        assert name in message
    # Back-compat: handlers catching the old error type keep working.
    assert isinstance(excinfo.value, EvaluationError)
    assert isinstance(excinfo.value, LookupError)


def test_unknown_engine_error_via_env(monkeypatch, store):
    monkeypatch.setenv("REPRO_ENGINE", "no-such-backend")
    plan = parse_query("SELECT name FROM items", store.schema)
    with pytest.raises(UnknownEngineError, match="registered engines"):
        evaluate(plan, store)


# -- compilation -----------------------------------------------------------------


def test_compiled_sql_is_cte_shaped(engine, store):
    plan = parse_query("SELECT name FROM items WHERE price > 1", store.schema)
    sql = engine.compiled_sql(plan, store)
    assert sql.startswith("WITH ")
    assert '"r_items"' in sql
    assert sql.rstrip().endswith("SELECT * FROM q2")


def test_compiled_sql_cache_hits(engine, store):
    plan = parse_query("SELECT name FROM items", store.schema)
    engine.execute(plan, store)
    misses = engine.stats()["compile_misses"]
    engine.execute(plan, store)
    engine.execute(plan, store)
    stats = engine.stats()
    assert stats["compile_misses"] == misses
    assert stats["compile_hits"] >= 2


def test_equal_plans_share_compiled_sql(engine, store):
    # Two structurally equal plans (e.g. the same SQL compiled twice by an
    # uncached session) hit the same cache slot.
    first = parse_query("SELECT name FROM items WHERE price > 1", store.schema)
    second = parse_query("SELECT name FROM items WHERE price > 1", store.schema)
    assert first is not second
    engine.execute(first, store)
    before = engine.stats()["compile_misses"]
    engine.execute(second, store)
    assert engine.stats()["compile_misses"] == before


def test_tables_load_once_and_reload_on_mutation(engine, store):
    plan = parse_query("SELECT name FROM items", store.schema)
    engine.execute(plan, store)
    loads = engine.stats()["table_loads"]
    engine.execute(plan, store)
    assert engine.stats()["table_loads"] == loads  # unchanged relation reused
    store.relation("items").add((9, "fig", 3.0))
    result = engine.execute(plan, store)
    assert engine.stats()["table_loads"] == loads + 1
    assert ("fig",) in result


def test_schema_change_recompiles(engine, store):
    plan = parse_query("SELECT name FROM items", store.schema)
    engine.execute(plan, store)
    misses = engine.stats()["compile_misses"]
    replacement = bag_relation(
        RelationSchema("items", ["item_id", "name", "price", "stock"]),
        [(1, "apple", 1.5, 10)],
    )
    store.add_relation(replacement, replace=True)
    result = engine.execute(plan, store)
    assert engine.stats()["compile_misses"] == misses + 1
    assert result.to_rows() == [("apple",)]


def test_sql_literal_rendering():
    assert sql_literal(None) == "NULL"
    assert sql_literal(True) == "1"
    assert sql_literal(3) == "3"
    assert sql_literal(1.5) == "1.5"
    assert sql_literal("o'clock") == "'o''clock'"
    with pytest.raises(NotSupportedError):
        sql_literal(float("inf"))
    with pytest.raises(NotSupportedError):
        sql_literal((1, 2))


def test_annotation_sql_rejects_exotic_semirings():
    with pytest.raises(NotSupportedError, match="no SQL encoding"):
        annotation_sql(UASemiring(NATURAL))
    assert annotation_sql(NATURAL).encode(7) == 7
    assert annotation_sql(BOOLEAN).decode(1) is True


def test_compile_plan_rejects_unsupported_functions(store):
    plan = parse_query("SELECT sqrt(price) AS r FROM items", store.schema)
    with pytest.raises(NotSupportedError, match="sqrt"):
        compile_plan(plan, store)


# -- fallback --------------------------------------------------------------------


def test_unsupported_function_falls_back_with_warning(engine, store, caplog):
    plan = parse_query("SELECT round(price) AS r FROM items", store.schema)
    columnar = dispatch_counts().get("columnar", 0)
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        result = engine.execute(plan, store)
    assert any("falling back" in record.message for record in caplog.records)
    assert result == evaluate(plan, store, engine="row", optimize=False)
    assert engine.stats()["fallbacks"] == 1
    # The delegate is visible in the process-wide dispatch accounting.
    assert dispatch_counts()["columnar"] == columnar + 1


def test_unsupported_semiring_falls_back(engine, caplog):
    db = Database(FUZZY, "fuzzy")
    relation = KRelation(RelationSchema("f", ["x"]), FUZZY)
    relation.add((1,), 0.5)
    db.add_relation(relation)
    plan = algebra.Selection(
        algebra.RelationRef("f"), Comparison("=", Column("x"), Literal(1))
    )
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        result = engine.execute(plan, db)
    assert any("falling back" in record.message for record in caplog.records)
    assert result.annotation((1,)) == 0.5


def test_oversized_multiplicities_fall_back(engine, caplog):
    db = Database(NATURAL, "huge")
    relation = KRelation(RelationSchema("h", ["x"]), NATURAL)
    relation.add((1,), 2 ** 70)
    db.add_relation(relation)
    plan = algebra.RelationRef("h")
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        result = engine.execute(plan, db)
    assert any("falling back" in record.message for record in caplog.records)
    assert result.annotation((1,)) == 2 ** 70


def test_unstorable_values_fall_back(engine, caplog):
    db = Database(NATURAL, "odd")
    relation = KRelation(RelationSchema("geo", ["rect"]), NATURAL)
    relation.add((((0.0, 0.0), (1.0, 1.0)),), 1)  # tuple value: unbindable
    db.add_relation(relation)
    plan = algebra.RelationRef("geo")
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        result = engine.execute(plan, db)
    assert any("falling back" in record.message for record in caplog.records)
    assert len(result) == 1


def test_fallback_result_matches_columnar_everywhere(engine, store):
    # A mixed plan: supported join feeding an unsupported scalar function.
    plan = parse_query(
        "SELECT sqrt(price) AS root FROM items WHERE price IS NOT NULL",
        store.schema,
    )
    assert engine.execute(plan, store) == evaluate(
        plan, store, engine="columnar", optimize=False
    )


# -- parameters ------------------------------------------------------------------


def test_parameters_pass_through_to_sqlite(engine, store):
    plan = parse_query("SELECT name FROM items WHERE price > ?", store.schema)
    sql = engine.compiled_sql(plan, store)
    assert "?1" in sql  # the placeholder itself reaches SQLite
    result = engine.execute(plan, store, params=[1.0])
    assert sorted(result.to_rows()) == [("apple",), ("donut",)]
    # Same compiled SQL, different binding -- no recompilation.
    misses = engine.stats()["compile_misses"]
    other = engine.execute(plan, store, params=[2.0])
    assert engine.stats()["compile_misses"] == misses
    assert sorted(other.to_rows()) == [("donut",)]


def test_named_parameters_pass_through(engine, store):
    plan = parse_query(
        "SELECT name FROM items WHERE price BETWEEN :lo AND :hi", store.schema
    )
    sql = engine.compiled_sql(plan, store)
    assert ":lo" in sql and ":hi" in sql
    result = engine.execute(plan, store, params={"LO": 0.4, "hi": 2.0})
    assert sorted(result.to_rows()) == [("apple",), ("banana",)]


def test_missing_parameters_raise_not_fall_back(engine, store):
    plan = parse_query("SELECT name FROM items WHERE price > ?", store.schema)
    with pytest.raises(ParameterError):
        engine.execute(plan, store)
    assert engine.stats()["fallbacks"] == 0


def test_parameterized_limit_binds_and_validates(engine, store):
    plan = parse_query(
        "SELECT name FROM items ORDER BY name LIMIT ?", store.schema
    )
    sql = engine.compiled_sql(plan, store)
    assert "LIMIT MAX(?1, 0)" in sql
    assert engine.execute(plan, store, params=[2]).to_rows() == \
        evaluate(plan, store, engine="row", params=[2]).to_rows()
    assert len(engine.execute(plan, store, params=[0])) == 0
    assert len(engine.execute(plan, store, params=[-3])) == 0
    with pytest.raises(EvaluationError, match="integer row count"):
        engine.execute(plan, store, params=[2.5])


def test_surplus_positional_parameters_tolerated(engine, store):
    # The engine-level contract allows surplus values (the optimizer may
    # prune placeholders); they must not reach sqlite3's arity check.
    plan = parse_query("SELECT name FROM items WHERE price > ?", store.schema)
    result = engine.execute(plan, store, params=[1.0, "unused"])
    assert sorted(result.to_rows()) == [("apple",), ("donut",)]


# -- session integration ----------------------------------------------------------


def test_session_backend_sql_and_prepared_reuse():
    conn = repro.connect(engine="sqlite", name="sqlite-session")
    conn.execute("CREATE TABLE t (a INT, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)",
                     [(1, "x"), (2, "y"), (3, "z")])
    sql = "SELECT a, b FROM t WHERE a >= ?"
    text = conn.backend_sql(sql)
    assert text is not None and text.startswith("WITH ")
    statement = conn.prepare(sql)
    engine = get_engine("sqlite")
    misses = engine.stats()["compile_misses"]
    assert statement.execute([2]).rows() == [(2, "y"), (3, "z")]
    assert statement.execute([3]).rows() == [(3, "z")]
    # The cached prepared plan re-uses the compiled SQL text across executes.
    assert engine.stats()["compile_misses"] == misses


def test_session_backend_sql_none_for_interpreters_and_fallbacks():
    conn = repro.connect(engine="row", name="row-session")
    conn.execute("CREATE TABLE t (a INT)")
    assert conn.backend_sql("SELECT a FROM t") is None
    sq = repro.connect(engine="sqlite", name="sqlite-session-2")
    sq.execute("CREATE TABLE t (a FLOAT)")
    assert sq.backend_sql("SELECT sqrt(a) AS r FROM t") is None


def test_insert_through_session_reloads_sqlite_tables():
    conn = repro.connect(engine="sqlite", name="sqlite-reload")
    conn.execute("CREATE TABLE t (a INT)")
    conn.execute("INSERT INTO t VALUES (1)")
    assert conn.query("SELECT a FROM t").rows() == [(1,)]
    conn.execute("INSERT INTO t VALUES (2)")
    assert conn.query("SELECT a FROM t").rows() == [(1,), (2,)]


def _wide_join(width: int) -> str:
    tables = [f"t{i}" for i in range(width)]
    return (f"SELECT t0.k, {', '.join(f'v{i}' for i in range(width))} "
            f"FROM {', '.join(tables)} WHERE "
            + " AND ".join(f"t0.k = {table}.k" for table in tables[1:]))


def test_wide_join_certainty_column_stays_on_sqlite():
    """``min(C1..Cn)`` is one n-ary ``least``: its SQL is quadratic in the
    join width, where a pairwise fold doubled per input and overflowed
    SQLite's parser stack at ten inputs."""
    sessions = []
    for name in ("sqlite", "row"):
        conn = repro.connect(engine=name, name=f"wide-{name}")
        for i in range(12):
            conn.execute(f"CREATE TABLE t{i} (k INT, v{i} INT)")
            conn.executemany(f"INSERT INTO t{i} VALUES (?, ?)",
                             [(k, k * i) for k in range(20)])
        sessions.append(conn)
    conn, reference = sessions
    narrow, wide = conn.backend_sql(_wide_join(4)), conn.backend_sql(_wide_join(12))
    assert len(wide) <= 9 * len(narrow)
    engine = get_engine("sqlite")
    fallbacks = engine.stats()["fallbacks"]
    result = conn.query(_wide_join(12))
    assert engine.stats()["fallbacks"] == fallbacks
    assert len(result) == 20
    assert result.labeled_rows() == reference.query(_wide_join(12)).labeled_rows()


# -- review regressions -----------------------------------------------------------


def test_mixed_type_range_comparison_matches_interpreters(engine):
    """9 vs '10': ordering across types is *unknown* to the evaluator; the
    TYPEOF guard must stop SQLite from type-ranking text above numbers."""
    db = Database(NATURAL, "mixed")
    relation = KRelation(RelationSchema("m", ["a"]), NATURAL)
    relation.add((9,), 1)
    relation.add(("10",), 1)
    relation.add((3,), 1)
    db.add_relation(relation)
    for sql in (
        "SELECT a FROM m WHERE a > 5",
        "SELECT a FROM m WHERE a <= 9",
        "SELECT a FROM m WHERE a BETWEEN 1 AND 5",
        "SELECT a FROM m WHERE a = 9",
        "SELECT a FROM m WHERE a != 9",
    ):
        plan = parse_query(sql, db.schema)
        expected = evaluate(plan, db, engine="row", optimize=False)
        assert engine.execute(plan, db) == expected, sql


def test_unsupported_verdict_is_negatively_cached(engine, store, caplog):
    plan = parse_query("SELECT sqrt(price) AS r FROM items", store.schema)
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        engine.execute(plan, store)
        misses = engine.stats()["compile_misses"]
        engine.execute(plan, store)
        engine.execute(plan, store)
    stats = engine.stats()
    # Re-executions hit the cached verdict instead of re-walking the plan...
    assert stats["compile_misses"] == misses
    assert stats["compile_hits"] >= 2
    assert stats["fallbacks"] == 3
    # ... and the warning fires once per plan, not once per execution.
    warnings = [r for r in caplog.records if "falling back" in r.message]
    assert len(warnings) == 1


def test_failed_load_is_not_retried_until_relation_changes(engine, caplog):
    db = Database(NATURAL, "huge2")
    relation = KRelation(RelationSchema("h", ["x"]), NATURAL)
    relation.add((1,), 2 ** 70)
    db.add_relation(relation)
    plan = algebra.RelationRef("h")
    with caplog.at_level(logging.WARNING, logger="repro.db.engine.sqlite"):
        engine.execute(plan, db)
        loads = engine.stats()["table_loads"]
        engine.execute(plan, db)  # cached failure: no re-load attempt
    assert engine.stats()["table_loads"] == loads
    # Mutating the relation clears the verdict and the load succeeds.
    relation.set_annotation((1,), 3)
    result = engine.execute(plan, db)
    assert result.annotation((1,)) == 3
    assert engine.stats()["table_loads"] == loads + 1
