"""Attribute mode reads a tuple-level table straight from its ``Enc`` table.

Tuple-level UA is the collapsed case of AU-DB ranges: an ``Enc`` row
``(t, C)`` of annotation ``n`` reads as ``n`` fragments of multiplicity
``(C, 1, 1)``, which sum to the ``(certain, det, det)`` of
:meth:`AttributeBoundsRelation.from_ua_relation`.  So a session keeps one
execution database, :attr:`Connection.encoded`, for both annotation levels,
and this file pins

* the degenerate reading against its reference, a session that registered
  the ``from_ua_relation`` conversion as a native attribute relation;
* the catalogs a session holding both kinds of table reports;
* tuple-level entry points rejecting an attribute table, or an unknown
  name, before anything runs, with a :class:`SchemaError` naming it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from differential import degenerate_reference
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.core.uadb import UADatabase, UARelation
from repro.db.schema import Attribute, DataType, RelationSchema, SchemaError
from repro.ingest import IngestError
from repro.semirings import NATURAL

ENGINES = ("row", "columnar", "sqlite")

QUERIES = [
    "SELECT a, b FROM r WHERE b >= 1",
    "SELECT r.a, s.v FROM r, s WHERE r.a = s.k",
    "SELECT DISTINCT a FROM r",
    "SELECT a FROM r UNION ALL SELECT k FROM s",
    "SELECT a, COUNT(*) AS n, SUM(b) AS total, MIN(b) AS lo, MAX(b) AS hi "
    "FROM r GROUP BY a",
    "SELECT COUNT(*) AS n, SUM(v) AS total FROM s",
]


@st.composite
def _split(draw):
    """A bag split ``0 <= c <= d <= 3`` with ``d >= 1``."""
    determinized = draw(st.integers(1, 3))
    return draw(st.integers(0, determinized)), determinized


#: Few distinct values, so rows repeat (their splits add up) and join.
_rows = st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                           _split()), max_size=8)


def _uadb(r_rows, s_rows) -> UADatabase:
    uadb = UADatabase(NATURAL, "degenerate")
    for name, columns, rows in (("r", ("a", "b"), r_rows),
                                ("s", ("k", "v"), s_rows)):
        relation = UARelation(RelationSchema(name, [
            Attribute(column, DataType.INTEGER) for column in columns]),
            uadb.ua_semiring)
        for row, (certain, determinized) in rows:
            relation.add_tuple(row, certain=certain, determinized=determinized)
        uadb.add_relation(relation)
    return uadb


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=30, deadline=None)
@given(r_rows=_rows.filter(bool), s_rows=_rows)
def test_enc_reading_equals_the_from_ua_relation_reference(engine, r_rows,
                                                           s_rows):
    uadb = _uadb(r_rows, s_rows)
    connection = repro.connect(engine=engine, name=f"enc-{engine}")
    connection.register_ua_database(uadb)
    reference = degenerate_reference(uadb, engine)
    try:
        for sql in QUERIES:
            answer = connection.query_bounds(sql)
            expected = reference.query_bounds(sql)
            assert answer.bounded_rows() == expected.bounded_rows(), sql
            assert answer.labeled_rows() == expected.labeled_rows(), sql
    finally:
        connection.close()
        reference.close()


# -- one database, the same catalogs ------------------------------------------


def _both_kinds(path=None) -> repro.Connection:
    connection = repro.connect(path, engine="sqlite", name="both-kinds")
    connection.execute("CREATE TABLE r (a INT, b TEXT)")
    connection.executemany("INSERT INTO r VALUES (?, ?)",
                           [(1, "x"), (1, "x"), (2, "y")])
    connection.load("r", [(3, None)], uncertainty="flag")
    w = AttributeBoundsRelation(RelationSchema("w", (
        Attribute("k", DataType.INTEGER), Attribute("v", DataType.STRING))))
    w.add_row((1, "p"), lower=(0, "a"), upper=(2, "q"))
    w.add_row((2, "q"), multiplicity=(0, 1, 2))
    connection.register_attribute_relation(w)
    connection.execute("CREATE TABLE s (k INT)")
    connection.execute("INSERT INTO s VALUES (5)")
    return connection


def _columns(schema):
    return [(attribute.name, attribute.data_type.name)
            for attribute in schema.attributes]


def _assert_catalogs(connection) -> None:
    r = [("a", "INTEGER"), ("b", "STRING")]
    s = [("k", "INTEGER")]
    w = [("k", "INTEGER"), ("v", "STRING")]
    assert [(schema.name, _columns(schema))
            for schema in connection.catalog] == [("r", r), ("s", s)]
    assert [(schema.name, _columns(schema))
            for schema in connection.encoded_catalog] \
        == [("r", r + [("C", "INTEGER")]), ("s", s + [("C", "INTEGER")])]
    assert [(schema.name, _columns(schema))
            for schema in connection.attribute_catalog] \
        == [("w", w), ("r", r), ("s", s)]

    def listed(columns):
        return [{"name": name, "type": kind.lower()} for name, kind in columns]

    assert connection.tables() == [
        {"name": "r", "columns": listed(r), "row_count": 3},
        {"name": "s", "columns": listed(s), "row_count": 1},
        {"name": "w", "columns": listed(w), "row_count": 2,
         "annotation": "attribute"}]
    assert [(relation.schema.name, sorted(
        (row, (annotation.certain, annotation.determinized))
        for row, annotation in relation.items()))
        for relation in connection.uadb] == [
            ("r", [((1, "x"), (2, 2)), ((2, "y"), (1, 1)),
                   ((3, None), (0, 1))]),
            ("s", [((5,), (1, 1))])]


def test_a_session_with_both_kinds_of_table_reports_the_same_catalogs(
        tmp_path):
    connection = _both_kinds()
    _assert_catalogs(connection)
    connection.close()
    path = str(tmp_path / "both.uadb")
    _both_kinds(path).close()
    reopened = repro.connect(path, engine="sqlite")
    try:
        _assert_catalogs(reopened)
    finally:
        reopened.close()


# -- tuple-level entry points reject what they cannot read ------------------------


@pytest.mark.parametrize("name,message", [
    ("W", r"relation 'W' is attribute-level.*query_bounds\(\).*"
          r"annotation=\"attribute\""),
    ("nosuch", "unknown relation 'nosuch'"),
])
def test_tuple_level_entry_points_name_the_relation(name, message):
    connection = _both_kinds()
    cached = len(connection.plan_cache)
    try:
        for mode in ("rewritten", "direct"):
            with pytest.raises(SchemaError, match=message):
                connection.prepare(f"SELECT k FROM {name}", mode)
            with pytest.raises(SchemaError, match=message):
                connection.prepare(
                    f"SELECT r.a FROM r, {name} WHERE r.a = {name}.k", mode)
        assert len(connection.plan_cache) == cached  # no plan was kept
        with pytest.raises(SchemaError, match=message):
            connection.execute(f"INSERT INTO {name} VALUES (1, 'p')")
        if name == "W":
            with pytest.raises(SchemaError, match=message):
                connection.load(name, [(1, "p")])
        else:
            with pytest.raises(IngestError, match=f"'{name}'"):
                connection.load(name, [(1, "p")], create=False)
        # Attribute mode still reads the native table; nothing was written.
        assert connection.query_bounds("SELECT k, v FROM w").bounded_rows() \
            == [(((0, 1, 2), ("a", "p", "q")), (1, 1, 1)),
                (((2, 2, 2), ("q", "q", "q")), (0, 1, 2))]
    finally:
        connection.close()


def test_an_attribute_connection_rejects_an_insert_into_a_native_table():
    connection = repro.connect(annotation="attribute", engine="sqlite")
    try:
        connection.register_attribute_relation(
            AttributeBoundsRelation(RelationSchema("w", ["k"])))
        with pytest.raises(SchemaError, match="'w' is attribute-level"):
            connection.execute("INSERT INTO w VALUES (1)")
        assert connection.query("SELECT k FROM w").rows() == []
    finally:
        connection.close()
