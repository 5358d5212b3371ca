"""Collapsed-range propagation in the attribute (AU-DB) rewriter.

The range rewriter learns from the data which columns cannot be uncertain
(:meth:`AttributeBoundsRelation.certain_attributes`) and compiles those by
their best-guess column alone: equality joins instead of overlap joins,
one product instead of four corners, no multiplicity guard where the row
was already filtered on the same predicate.  A wrong flag would turn into
a wrong "certain", so this file pins

* *tuple-level UA is the collapsed case of AU* -- same rows, same
  certainty, on the tuple-level harness's sources and queries;
* answers with the certainty map equal answers without it;
* the flag is exact (one uncertain fragment withdraws it) and fresh
  (registrations and INSERTs recompile against the current data, and a
  native table's flags are re-read only when that table moves);
* the plan shape the flag buys, and what ``EXPLAIN`` says about it.
"""

from __future__ import annotations

import random
import re

import pytest

import repro
from differential import (
    AttributeQuery,
    AttributeSource,
    attribute_best_guess_world,
    build_attribute_source,
    build_source,
    close_sessions,
    degenerate_reference,
    enumerate_attribute_worlds,
    open_attribute_sessions,
    public_attribute_database,
    random_attribute_query,
    random_query,
    run_attribute_query,
)
from repro.api import session as session_module
from repro.core.attribute_bounds import (
    AttributeBoundsRelation,
    decode_attribute_relation,
)
from repro.core.attribute_rewriter import (
    AttributeRewriteError,
    rewrite_attribute_plan,
)
from repro.core.uadb import UADatabase, UARelation
from repro.db.engine import get_engine
from repro.db.evaluator import evaluate
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.db.sql.parser import parse_statement
from repro.db.sql.translator import translate
from repro.semirings import NATURAL
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.tpch_queries import pdbench_query

ENGINES = ("row", "columnar", "sqlite")


# -- bugfix: AU mode must not un-certify certain facts --------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("predicate", ["a.k <> a.v", "NOT (a.k = a.v)"])
def test_cross_type_comparison_keeps_certain_facts_certain(engine, predicate):
    """An int-vs-text ``<>`` is simply true; its range form went unknown and
    labelled deterministic facts ``existence_certain=False``."""
    connection = repro.connect(engine=engine, name=f"crosstype-{engine}")
    try:
        connection.execute("CREATE TABLE a (k INT, v TEXT)")
        for row in ((1, "x"), (2, "y"), (3, "z"), (4, None)):
            connection.execute("INSERT INTO a VALUES (?, ?)", row)
        sql = f"SELECT a.k FROM a WHERE {predicate}"
        assert connection.query(sql).labeled_rows() == [
            ((1,), True), ((2,), True), ((3,), True)]
        assert [(row, label.existence_certain) for row, label
                in connection.query_bounds(sql).labeled_rows()] == [
            ((1,), True), ((2,), True), ((3,), True)]
    finally:
        connection.close()


@pytest.mark.parametrize("seed", range(12))
def test_tuple_level_ua_is_the_collapsed_case_of_au(seed):
    """RA+ over tuple-level sources: ``query_bounds`` has the rows of
    ``query`` and ``existence_certain`` equals the UA label."""
    rng = random.Random(9100 + seed)
    uadb = build_source(rng)
    sessions = []
    for engine in ENGINES:
        connection = repro.connect(engine=engine, name=f"collapsed-{engine}")
        connection.register_ua_database(uadb)
        sessions.append(connection)
    compared = 0
    try:
        while compared < 6:
            query = random_query(rng)
            if "rewritten" not in query.modes or query.limit is not None:
                continue  # aggregates and LIMIT are outside RA+
            sql = query.to_sql()
            for connection in sessions:
                try:
                    bounds = connection.query_bounds(sql, query.params)
                except AttributeRewriteError:
                    break  # LIKE / CASE: outside the range fragment
                assert [(row, label.existence_certain)
                        for row, label in bounds.labeled_rows()] \
                    == connection.query(sql, query.params).labeled_rows(), sql
                assert not any(label.uncertain_attributes
                               for _, label in bounds.labeled_rows())
            else:
                compared += 1
    finally:
        for connection in sessions:
            connection.close()


# -- (a) the map changes the plan, never the answer ------------------------------


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("engine", ENGINES)
def test_answers_with_the_map_equal_answers_without(engine, optimize):
    g_flags = set()
    for seed in range(25):
        rng = random.Random(5200 + seed)
        source = build_attribute_source(rng)
        catalog, database, certain = public_attribute_database(
            source.uadb, engine, source.native)
        assert certain["r"] == {"a", "v"}
        g_flags.add("g" in certain["t"])
        for _ in range(4):
            query = random_attribute_query(rng)
            logical = translate(parse_statement(query.to_sql()), catalog)
            answers = []
            for known in (certain, None):
                rewrite = rewrite_attribute_plan(logical, database.schema, known)
                encoded = evaluate(rewrite.plan, database, engine=engine,
                                   optimize=optimize, params=query.params)
                answers.append(decode_attribute_relation(
                    encoded, attributes=rewrite.columns,
                    widths=rewrite.widths).bounded_rows())
            assert answers[0] == answers[1], query.to_sql()
    # The generator draws both a collapsed and an uncertain key column.
    assert g_flags == {True, False}


# -- (b) exactness of the source --------------------------------------------------


def _keyed_source(key_range) -> AttributeSource:
    """``t(g, x)`` with one fragment's key range as given, and ``r(a, v)``."""
    native = AttributeBoundsRelation(RelationSchema("t", (
        Attribute("g", DataType.INTEGER), Attribute("x", DataType.INTEGER))))
    native.add_bounded((key_range, (4, 5, 6)), (1, 1, 1))
    native.add_bounded(((2, 2, 2), (7, 7, 7)), (0, 1, 2))
    uadb = UADatabase(NATURAL, "keyed")
    r = UARelation(RelationSchema("r", [
        Attribute("a", DataType.INTEGER), Attribute("v", DataType.INTEGER),
    ]), uadb.ua_semiring)
    r.add_tuple((1, 3), certain=1, determinized=1)
    r.add_tuple((2, 8), certain=0, determinized=1)
    uadb.add_relation(r)
    fragments = [("t", ranges, m) for ranges, m in native.items()]
    fragments += [
        ("r", ranges, m) for ranges, m
        in AttributeBoundsRelation.from_ua_relation(r).items()]
    return AttributeSource(native, uadb, fragments)


_KEY_JOIN = AttributeQuery(
    tables=("t", "r"),
    select=(("g", lambda env, p: env["g"]), ("v", lambda env, p: env["v"])),
    where=(("g = a", lambda env, p: env["g"] == env["a"]),),
)


@pytest.mark.parametrize("key_range,certain,range_joins", [
    ((1, 1, 2), False, 1),
    ((1, 1, 1), True, 0),
])
def test_one_uncertain_key_fragment_withdraws_the_flag(
        key_range, certain, range_joins, tmp_path):
    source = _keyed_source(key_range)
    assert ("g" in source.native.certain_attributes()) is certain
    assert "x" not in source.native.certain_attributes()
    sessions = open_attribute_sessions(source, 0, str(tmp_path))
    try:
        for _, connection in sessions:
            report = connection.explain(_KEY_JOIN.to_sql(), mode="attribute")
            assert report["range_joins"] == range_joins
            assert report["certain_columns"] == (["g", "v"] if certain else ["v"])
        # Every engine agrees with the row engine and the bounds contain the
        # answer of every enumerated world.
        assert run_attribute_query(
            sessions, enumerate_attribute_worlds(source.fragments),
            attribute_best_guess_world(source.fragments), _KEY_JOIN) is None
    finally:
        close_sessions(sessions)


def test_all_null_ranges_count_as_collapsed():
    relation = AttributeBoundsRelation(RelationSchema("n", (
        Attribute("k", DataType.INTEGER), Attribute("w", DataType.INTEGER))))
    assert relation.certain_attributes() == {"k", "w"}
    relation.add_bounded(((None, None, None), (1, 2, 3)))
    relation.add_bounded((5, (2, 2, 2)))
    assert relation.certain_attributes() == {"k"}
    # A fragment that can never exist is not stored, so it cannot count.
    relation.add_bounded(((0, 1, 2), 0), (0, 0, 0))
    assert relation.certain_attributes() == {"k"}


# -- (c) freshness ----------------------------------------------------------------


def test_registration_and_insert_recompile_against_current_data(monkeypatch):
    """A tuple-level table is read from its ``Enc`` table, so every change to
    it -- the session's own inserts, one raising a stored tuple's
    multiplicity, a mutation nobody reported -- reaches the next answer,
    which equals the ``from_ua_relation`` reference; a native table's
    certain map is re-read only when that table's fingerprint moves."""
    read = []
    decode = session_module.decode_attribute_relation
    monkeypatch.setattr(session_module, "decode_attribute_relation",
                        lambda relation, *args, **kwargs: read.append(relation)
                        or decode(relation, *args, **kwargs))
    connection = repro.connect(engine="sqlite", name="freshness")
    native = _keyed_source((1, 1, 1)).native

    def reads() -> int:
        return sum(any(relation is table for table in connection.encoded)
                   for relation in read)

    def assert_reference(*natives) -> None:
        reference = degenerate_reference(connection.uadb, "sqlite", *natives)
        try:
            for sql in ["SELECT a, v FROM r"] + [_KEY_JOIN.to_sql()] * bool(natives):
                assert connection.query_bounds(sql).bounded_rows() \
                    == reference.query_bounds(sql).bounded_rows(), sql
        finally:
            reference.close()

    try:
        connection.execute("CREATE TABLE r (a INT, v INT)")
        connection.execute("INSERT INTO r VALUES (1, 3)")
        assert connection.query_bounds("SELECT a, v FROM r").rows() == [(1, 3)]
        assert_reference()
        connection.execute("INSERT INTO r VALUES (2, 8)")
        assert connection.query_bounds("SELECT a, v FROM r").rows() \
            == [(1, 3), (2, 8)]
        connection.execute("INSERT INTO r VALUES (2, 8)")
        assert_reference()
        connection.encoded.relation("r").add((5, 5, 1))
        assert_reference()
        assert reads() == 0

        connection.register_attribute_relation(native)
        assert connection.explain(
            _KEY_JOIN.to_sql(), mode="attribute")["range_joins"] == 0
        assert reads() == 1
        assert_reference(native)
        # The insert recompiles every plan; ``t`` did not move.
        connection.execute("INSERT INTO r VALUES (1, 4)")
        assert_reference(native)
        assert reads() == 1

        # An uncertain key range written to ``t`` behind the session's back
        # withdraws the flag at the next compile.
        connection.encoded.relation("t").add((2, 1, 3, 7, 7, 7, 1, 1, 1))
        native.add_bounded(((1, 2, 3), (7, 7, 7)), (1, 1, 1))
        connection.plan_cache.clear()
        assert connection.explain(
            _KEY_JOIN.to_sql(), mode="attribute")["range_joins"] == 1
        assert reads() == 2
        assert_reference(native)
    finally:
        connection.close()


# -- (d), (e) plan shape -------------------------------------------------------------


@pytest.fixture(scope="module")
def pdbench_connection():
    instance = generate_pdbench(scale_factor=0.1, uncertainty=0.02, seed=7)
    connection = repro.connect(engine="sqlite", name="pdbench-certainty")
    connection.register_xdb(instance.xdb, world=instance.best_guess)
    yield connection
    connection.close()


@pytest.mark.parametrize("query", ["Q1", "Q2", "Q3"])
def test_pdbench_attribute_sql_joins_by_equality(pdbench_connection, query):
    sql = pdbench_query(query)
    compiled = pdbench_connection.backend_sql(sql, mode="attribute")
    joins = [line for line in compiled.splitlines() if " AS l, " in line]
    assert len(joins) == {"Q1": 2, "Q2": 0, "Q3": 3}[query]
    for line in joins:
        assert re.search(r"\([lr]\.c\d+ = [lr]\.c\d+\)", line), line
    column = r"\+?(?:[lr]\.)?c\d+"
    assert not re.search(rf"{column} <= {column}", compiled)
    # The parent's overlap-join SQL for Q3.
    assert query != "Q3" or len(compiled) <= 4119
    report = pdbench_connection.explain(sql, mode="attribute")
    assert report["range_joins"] == 0
    assert len(report["certain_columns"]) == len(
        pdbench_connection.query_bounds(sql).schema.attributes)


def test_eight_way_equi_join_stays_on_sqlite():
    connection = repro.connect(engine="sqlite", name="deep-attribute")
    try:
        for i in range(8):
            connection.execute(f"CREATE TABLE t{i} (k INT, v{i} INT)")
            connection.executemany(f"INSERT INTO t{i} VALUES (?, ?)",
                                   [(k, k * i) for k in range(20)])
        tables = [f"t{i}" for i in range(8)]
        sql = (f"SELECT t0.k, {', '.join(f'v{i}' for i in range(8))} "
               f"FROM {', '.join(tables)} WHERE "
               + " AND ".join(f"t0.k = {table}.k" for table in tables[1:]))
        engine = get_engine("sqlite")
        fallbacks = engine.stats()["fallbacks"]
        result = connection.query_bounds(sql)
        assert engine.stats()["fallbacks"] == fallbacks
        assert result.rows() == connection.query(sql).rows()
        assert len(result.certain_rows()) == 20
        assert connection.explain(sql, mode="attribute")["range_joins"] == 0
    finally:
        connection.close()


# -- (f) the two-argument call ----------------------------------------------------------


def test_two_positional_arguments_mean_nothing_known(pdbench_connection):
    catalog, database, certain = public_attribute_database(
        pdbench_connection.uadb, "sqlite")
    logical = translate(parse_statement(pdbench_query("Q3")), catalog)
    general = rewrite_attribute_plan(logical, database.schema)
    assert general == rewrite_attribute_plan(logical, database.schema, {})
    assert general.range_joins == 3 and general.certain_columns == ()
    assert general.plan != rewrite_attribute_plan(
        logical, database.schema, certain).plan


# -- EXPLAIN on an attribute connection -----------------------------------------------


def test_sql_explain_reports_range_joins_and_certain_columns():
    connection = repro.connect(annotation="attribute", engine="sqlite",
                               name="explain-attribute")
    try:
        source = _keyed_source((1, 1, 2))
        connection.register_attribute_relation(source.native)
        connection.register_ua_database(source.uadb)
        details = [detail for _, detail in connection.execute(
            "EXPLAIN " + _KEY_JOIN.to_sql()).fetchall()]
        assert "range joins: 1" in details
        assert "certain columns: v" in details
        tuple_level = connection.explain(_KEY_JOIN.to_sql().replace(
            "FROM t, r WHERE g = a", "FROM r"), mode="rewritten")
        assert "range_joins" not in tuple_level
    finally:
        connection.close()
