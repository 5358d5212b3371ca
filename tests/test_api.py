"""Tests for the DB-API-style session layer (`repro.connect`).

Covers parameter placeholders end to end (lexer -> parser -> plan -> both
engines), the prepared-plan cache (hits, invalidation on registration, LRU
bounds), SQL-level CREATE TABLE / INSERT, cursors, and equivalence of the
session's rewritten path with the direct K_UA evaluation.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import Connection, PlanCache, PreparedStatement, SessionError, connect
from repro.core.uadb import UARelation
from repro.db.params import ParameterError
from repro.db.relation import bag_relation
from repro.db.schema import DataType, RelationSchema, SchemaError
from repro.db.sql.lexer import SQLSyntaxError
from repro.semirings import NATURAL
from repro.incomplete.tidb import TIDatabase

ENGINES = ["row", "columnar", "sqlite"]

GEO_QUERY = (
    "SELECT a.id, l.locale, l.state FROM ADDR a, LOC l "
    "WHERE contains(l.rect, a.geocoded) AND a.id >= ?"
)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


@pytest.fixture
def geo_connection(geocoding_xdb, engine):
    conn = connect(NATURAL, name="geo", engine=engine)
    conn.register_xdb(geocoding_xdb)
    return conn


@pytest.fixture
def loaded_connection(engine):
    """A connection populated entirely through SQL."""
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE items (id INT, name TEXT, price FLOAT)")
    conn.executemany(
        "INSERT INTO items VALUES (?, ?, ?)",
        [(1, "apple", 1.5), (2, "banana", 0.5), (3, "cherry", 3.0)],
    )
    return conn


# ---------------------------------------------------------------------------
# Parameterized queries.
# ---------------------------------------------------------------------------

def test_positional_parameters_bind_per_execution(geo_connection):
    statement = geo_connection.prepare(GEO_QUERY)
    all_ids = {row[0] for row in statement.execute([1]).rows()}
    late_ids = {row[0] for row in statement.execute([3]).rows()}
    assert all_ids == {1, 2, 3, 4}
    assert late_ids == {3, 4}


def test_named_parameters(loaded_connection):
    cur = loaded_connection.execute(
        "SELECT name FROM items WHERE price >= :low AND price <= :high",
        {"low": 1.0, "high": 2.0},
    )
    assert cur.fetchall() == [("apple",)]


def test_parameters_identical_across_engines(geocoding_xdb):
    results = []
    for engine in ENGINES:
        conn = connect(NATURAL, name="geo", engine=engine)
        conn.register_xdb(geocoding_xdb)
        results.append(conn.query(GEO_QUERY, [2]).labeled_rows())
    assert results[0] == results[1]


def test_parameters_rewritten_equals_direct(geo_connection):
    rewritten = geo_connection.query(GEO_QUERY, [1])
    direct = geo_connection.query_direct(GEO_QUERY, [1])
    assert rewritten.labeled_rows() == direct.labeled_rows()


def test_wrong_parameter_count_raises(loaded_connection):
    with pytest.raises(ParameterError):
        loaded_connection.execute("SELECT id FROM items WHERE id = ?", [1, 2])
    with pytest.raises(ParameterError):
        loaded_connection.execute("SELECT id FROM items WHERE id = ?")
    with pytest.raises(ParameterError):
        loaded_connection.execute("SELECT id FROM items WHERE id = :k", {"other": 1})
    with pytest.raises(ParameterError):
        # Surplus named bindings are user errors too (likely a typo'd key).
        loaded_connection.execute(
            "SELECT id FROM items WHERE id = :k", {"k": 1, "leftover": 5}
        )
    with pytest.raises(ParameterError):
        loaded_connection.execute("SELECT id FROM items", [1])


def test_mixing_parameter_styles_rejected(loaded_connection):
    with pytest.raises(SQLSyntaxError):
        loaded_connection.execute(
            "SELECT id FROM items WHERE id = ? AND name = :n", [1]
        )


def test_parameter_values_can_be_arbitrary_objects(geo_connection):
    # Bind a whole bounding box (a nested tuple) through a placeholder.
    result = geo_connection.query(
        "SELECT id FROM ADDR WHERE contains(?, geocoded)",
        [((42.90, -78.85), (42.95, -78.78))],
    )
    assert {row[0] for row in result.rows()} == {1, 3, 4}


# ---------------------------------------------------------------------------
# The prepared-plan cache.
# ---------------------------------------------------------------------------

def test_cache_hit_on_repeated_execution(geo_connection):
    geo_connection.query(GEO_QUERY, [1])
    before = geo_connection.plan_cache.stats()
    geo_connection.query(GEO_QUERY, [2])
    geo_connection.query(GEO_QUERY, [3])
    after = geo_connection.plan_cache.stats()
    assert after["hits"] == before["hits"] + 2
    assert after["misses"] == before["misses"]


def test_cache_invalidated_by_registration_after_prepare(geo_connection):
    statement = geo_connection.prepare("SELECT id FROM ADDR WHERE id = ?")
    assert statement.execute([1]).rows() == [(1,)]
    hits_before = geo_connection.plan_cache.stats()["hits"]

    extra = bag_relation(RelationSchema("extra", ["k"]), [(10,)])
    geo_connection.register_deterministic(extra)

    # The catalog changed: the prepared statement must recompile (an
    # invalidation, not a stale hit) and still produce correct answers --
    # including against the relation registered after prepare().
    assert statement.execute([1]).rows() == [(1,)]
    stats = geo_connection.plan_cache.stats()
    assert stats["invalidations"] >= 1
    assert stats["hits"] == hits_before
    assert geo_connection.query("SELECT k FROM extra").labeled_rows() == [((10,), True)]


def test_cache_lru_eviction():
    cache = PlanCache(max_size=2)

    class Entry:
        def __init__(self, version):
            self.catalog_version = version

    cache.put("a", Entry(0))
    cache.put("b", Entry(0))
    assert cache.get("a", 0) is not None  # refresh 'a'
    cache.put("c", Entry(0))  # evicts 'b', the least recently used
    assert cache.get("b", 0) is None
    assert cache.get("a", 0) is not None
    assert cache.get("c", 0) is not None
    assert cache.stats()["evictions"] == 1


def test_cache_disabled_with_zero_size(geocoding_xdb):
    conn = connect(NATURAL, name="geo", cache_size=0)
    conn.register_xdb(geocoding_xdb)
    conn.query("SELECT id FROM ADDR")
    conn.query("SELECT id FROM ADDR")
    stats = conn.plan_cache.stats()
    assert stats["hits"] == 0
    assert stats["misses"] == 2


def test_warm_execution_skips_compilation(geo_connection, monkeypatch):
    """Once cached, a statement is never re-parsed/rewritten/optimized."""
    geo_connection.query(GEO_QUERY, [1])

    def boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("compilation ran on the warm path")

    monkeypatch.setattr(Connection, "_compile", boom)
    warm = geo_connection.query(GEO_QUERY, [3])
    assert {row[0] for row in warm.rows()} == {3, 4}


# ---------------------------------------------------------------------------
# SQL-level data definition and loading.
# ---------------------------------------------------------------------------

def test_create_table_types_are_enforced(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT, b TEXT)")
    assert conn.catalog.get("t").attribute("a").data_type is DataType.INTEGER
    with pytest.raises(SchemaError):
        conn.execute("INSERT INTO t VALUES ('not an int', 'x')")


def test_create_table_unknown_type_rejected():
    conn = connect()
    with pytest.raises(SchemaError):
        conn.execute("CREATE TABLE t (a BLOB)")


def test_column_c_is_reserved_at_the_tuple_level():
    """``C`` is the certainty column of every tuple-level table: each way of
    declaring a column of that name fails with a SchemaError saying so, and
    registers nothing.  An attribute-level relation may use the name."""
    from repro.core import AttributeBoundsRelation
    from repro.db.schema import Attribute
    from repro.incomplete import XDatabase

    xdb = XDatabase("x")
    xdb.create_relation(RelationSchema(
        "v", [Attribute("id", DataType.INTEGER),
              Attribute("c", DataType.INTEGER)])).add_certain((1, 2))
    with connect() as conn:
        for attempt in (
                lambda: conn.execute("CREATE TABLE t (id INT, c INT)"),
                lambda: conn.load("u", [{"id": 1, "c": 2}]),
                lambda: conn.register_xdb(xdb)):
            with pytest.raises(SchemaError,
                               match="'C'.*register_attribute_relation"):
                attempt()
        assert set(conn.encoded.relation_names()) == set()
        conn.execute("CREATE TABLE t (id INT, cc INT)")
        conn.register_attribute_relation(
            AttributeBoundsRelation.from_xdb(xdb.relation("v")))
        assert conn.query_bounds("SELECT c FROM v").certain_rows() == [(2,)]


def test_create_table_unterminated_type_suffix_is_syntax_error():
    conn = connect()
    with pytest.raises(SQLSyntaxError):
        conn.execute("CREATE TABLE t (a VARCHAR(20")


def test_query_rejects_ddl_without_side_effects(loaded_connection):
    """query() must refuse non-SELECT statements *before* executing them."""
    with pytest.raises(SessionError):
        loaded_connection.query("CREATE TABLE oops (a INT)")
    assert "oops" not in loaded_connection.catalog
    with pytest.raises(SessionError):
        loaded_connection.query("INSERT INTO items VALUES (9, 'x', 0.0)")
    assert len(loaded_connection.query("SELECT id FROM items")) == 3


def test_insert_with_named_columns_reorders_and_pads(loaded_connection):
    loaded_connection.execute(
        "INSERT INTO items (name, id) VALUES ('durian', 4)"
    )
    cur = loaded_connection.execute("SELECT id, name, price FROM items WHERE id = 4")
    assert cur.fetchall() == [(4, "durian", None)]


def test_inserted_rows_are_certain(loaded_connection):
    result = loaded_connection.query("SELECT name FROM items")
    assert all(certain for _, certain in result.labeled_rows())
    assert len(result.certain_rows()) == 3


def test_insert_multi_row_and_duplicate_multiplicity(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT)")
    cur = conn.execute("INSERT INTO t VALUES (1), (1), (2)")
    assert cur.rowcount == 3
    result = conn.query("SELECT a FROM t")
    assert result.relation.determinized_component((1,)) == 2
    assert result.relation.certain_component((1,)) == 2


def test_insert_into_registered_source(geo_connection):
    geo_connection.execute(
        "INSERT INTO LOC VALUES ('Elmwood', 'NY', ?)",
        [((42.91, -78.88), (42.93, -78.86))],
    )
    result = geo_connection.query("SELECT locale FROM LOC WHERE state = 'NY'")
    assert ("Elmwood",) in result.certain_rows()


def test_insert_requires_existing_table():
    conn = connect()
    with pytest.raises(SchemaError):
        conn.execute("INSERT INTO missing VALUES (1)")


def test_executemany_rejects_select(loaded_connection):
    with pytest.raises(SessionError):
        loaded_connection.executemany("SELECT id FROM items", [None])


# ---------------------------------------------------------------------------
# Cursors.
# ---------------------------------------------------------------------------

def test_cursor_fetch_interface(loaded_connection):
    cur = loaded_connection.execute("SELECT id, name FROM items ORDER BY id")
    assert cur.rowcount == 3
    assert [col[0] for col in cur.description] == ["id", "name"]
    assert cur.fetchone() == (1, "apple")
    assert cur.fetchmany(1) == [(2, "banana")]
    assert cur.fetchall() == [(3, "cherry")]
    assert cur.fetchone() is None


def test_cursor_iteration_and_context_manager(loaded_connection):
    with loaded_connection.cursor() as cur:
        rows = list(cur.execute("SELECT id FROM items ORDER BY id"))
        assert rows == [(1,), (2,), (3,)]
    with pytest.raises(SessionError):
        cur.fetchall()


def test_cursor_ua_views(geo_connection):
    cur = geo_connection.execute(GEO_QUERY, [1])
    certain_ids = {row[0] for row in cur.certain_rows()}
    assert 1 in certain_ids and 4 in certain_ids
    assert cur.labeled_rows() == cur.result.labeled_rows()
    assert set(cur.certain_rows()) | set(cur.uncertain_rows()) == set(cur.result.rows())


def test_cursor_description_none_for_ddl():
    conn = connect()
    cur = conn.execute("CREATE TABLE t (a INT)")
    assert cur.description is None
    assert cur.rowcount == 0


def test_closed_connection_rejects_statements(loaded_connection):
    loaded_connection.close()
    assert loaded_connection.closed
    with pytest.raises(SessionError):
        loaded_connection.execute("SELECT id FROM items")


def test_connection_context_manager(geocoding_xdb):
    with connect(NATURAL, name="geo") as conn:
        conn.register_xdb(geocoding_xdb)
        assert len(conn.query("SELECT id FROM ADDR")) == 4
    assert conn.closed


# ---------------------------------------------------------------------------
# Prepared statements.
# ---------------------------------------------------------------------------

def test_prepare_surfaces_errors_eagerly(loaded_connection):
    with pytest.raises(SQLSyntaxError):
        loaded_connection.prepare("SELEC id FROM items")
    with pytest.raises(SessionError):
        loaded_connection.prepare("SELECT id FROM items", mode="sideways")


def test_prepared_insert_executemany(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT, b TEXT)")
    statement = conn.prepare("INSERT INTO t VALUES (?, ?)")
    assert statement.kind == "insert"
    assert statement.executemany([(i, f"v{i}") for i in range(5)]) == 5
    assert len(conn.query("SELECT a FROM t")) == 5


def test_prepared_select_executemany_returns_results(loaded_connection):
    statement = loaded_connection.prepare("SELECT name FROM items WHERE id = ?")
    results = statement.executemany([[1], [3]])
    assert [r.rows() for r in results] == [[("apple",)], [("cherry",)]]


def test_prepared_statement_repr_and_parameters(loaded_connection):
    statement = loaded_connection.prepare("SELECT id FROM items WHERE id = ?")
    assert statement.kind == "select"
    assert len(statement.parameters) == 1
    assert "select" in repr(statement)


# ---------------------------------------------------------------------------
# Package surface.
# ---------------------------------------------------------------------------

def test_connect_exported_at_package_root():
    assert repro.connect is connect
    assert isinstance(repro.connect(), Connection)
    assert repro.PreparedStatement is PreparedStatement


# ---------------------------------------------------------------------------
# Parameterized LIMIT.
# ---------------------------------------------------------------------------

def test_parameterized_limit_positional(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(10)])
    statement = conn.prepare("SELECT a FROM t ORDER BY a DESC LIMIT ?")
    assert statement.execute([3]).rows() == [(7,), (8,), (9,)]
    assert statement.execute([1]).rows() == [(9,)]
    assert statement.execute([0]).rows() == []


def test_parameterized_limit_named(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT)")
    conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(6)])
    result = conn.query("SELECT a FROM t WHERE a >= :lo LIMIT :n",
                        {"lo": 2, "n": 2})
    assert result.rows() == [(2,), (3,)]


def test_parameterized_limit_shares_cached_plan(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT)")
    conn.execute("INSERT INTO t VALUES (1), (2), (3)")
    conn.query("SELECT a FROM t LIMIT ?", [1])
    misses = conn.plan_cache.stats()["misses"]
    conn.query("SELECT a FROM t LIMIT ?", [2])
    conn.query("SELECT a FROM t LIMIT ?", [3])
    assert conn.plan_cache.stats()["misses"] == misses


def test_parameterized_limit_rejects_non_integers(engine):
    conn = connect(engine=engine)
    conn.execute("CREATE TABLE t (a INT)")
    conn.execute("INSERT INTO t VALUES (1)")
    from repro.db.engine.base import EvaluationError

    with pytest.raises(EvaluationError, match="integer row count"):
        conn.query("SELECT a FROM t LIMIT ?", ["three"])
    with pytest.raises(ParameterError):
        conn.query("SELECT a FROM t LIMIT ?")


def test_limit_literal_still_rejects_non_integer_tokens():
    with pytest.raises(SQLSyntaxError, match="LIMIT requires"):
        connect().query("SELECT 1 FROM t LIMIT 'x'")


# ---------------------------------------------------------------------------
# Shared plan cache.
# ---------------------------------------------------------------------------

def _fresh_shared(name, **kwargs):
    """Connections with a unique shared-cache key per test run."""
    return connect(name=name, shared_cache=True, **kwargs)


def test_shared_cache_is_shared_by_name():
    a = _fresh_shared("shared-by-name")
    b = _fresh_shared("shared-by-name")
    other = _fresh_shared("different-name")
    assert a.plan_cache is b.plan_cache
    assert a.plan_cache is not other.plan_cache
    assert connect(name="shared-by-name").plan_cache is not a.plan_cache


def test_shared_cache_serves_warm_hits_across_connections():
    a = _fresh_shared("shared-warm")
    b = _fresh_shared("shared-warm")
    for conn in (a, b):
        conn.execute("CREATE TABLE t (x INT)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
    hits = a.plan_cache.stats()["hits"]
    assert a.query("SELECT x FROM t WHERE x > ?", [0]).rows() == [(1,), (2,)]
    assert b.query("SELECT x FROM t WHERE x > ?", [1]).rows() == [(2,)]
    # The second connection's identical statement is a warm hit.
    assert a.plan_cache.stats()["hits"] > hits


def test_shared_cache_registration_invalidates_group():
    a = _fresh_shared("shared-invalidate")
    b = _fresh_shared("shared-invalidate")
    for conn in (a, b):
        conn.execute("CREATE TABLE t (x INT)")
    a.query("SELECT x FROM t")
    version = b.catalog_version
    b.execute("CREATE TABLE u (y INT)")
    assert b.catalog_version == version + 1
    assert a.catalog_version == b.catalog_version  # shared counter
    invalidations = a.plan_cache.stats()["invalidations"]
    a.query("SELECT x FROM t")  # stale plan recompiled transparently
    assert a.plan_cache.stats()["invalidations"] == invalidations + 1


def test_shared_cache_survives_connection_close():
    a = _fresh_shared("shared-close")
    b = _fresh_shared("shared-close")
    for conn in (a, b):
        conn.execute("CREATE TABLE t (x INT)")
    b.query("SELECT x FROM t")
    size = len(b.plan_cache)
    a.close()
    assert len(b.plan_cache) == size
    assert b.query("SELECT x FROM t").rows() == []


def test_shared_cache_concurrent_cursors_are_safe():
    import threading

    connections = [_fresh_shared("shared-threads") for _ in range(4)]
    for conn in connections:
        conn.execute("CREATE TABLE t (x INT)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(20)])
    errors = []

    def worker(conn, lo):
        try:
            for i in range(30):
                rows = conn.execute(
                    "SELECT x FROM t WHERE x >= ?", [(lo + i) % 20]
                ).fetchall()
                assert rows == [(x,) for x in range((lo + i) % 20, 20)]
        except Exception as exc:  # pragma: no cover - surfaced via errors
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(conn, i * 3))
        for i, conn in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_tables_row_count_counts_distinct_best_guess_tuples():
    """A tuple with a certain and an uncertain copy is two encoded rows and
    one best-guess tuple."""
    conn = connect()
    relation = UARelation(RelationSchema("t", ["a"]), conn.uadb.ua_semiring)
    relation.add_tuple((1,), certain=1, determinized=2)
    conn.register_ua_relation(relation)
    assert len(conn.encoded.relation("t")) == 2
    assert [table["row_count"] for table in conn.tables()] == [1]
    conn.close()
