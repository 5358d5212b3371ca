"""``AttributeQueryResult`` as a view over the engine's encoded answer.

A session's attribute-mode result reads rows, labels and bounds off one
validating pass over the encoded answer, in which a column the rewriter
proved collapsed occupies one position instead of three.  Every accessor
must equal what decoding the canonical all-triples plan's answer gives, and
none but ``.relation`` may assemble an ``AttributeBoundsRelation``.
"""

from __future__ import annotations

import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from differential import public_attribute_database
from repro.api import ConnectionPool
from repro.api.session import AttributeQueryResult, _EncodedAttributeResult
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, AttributeLabel, RangeError,
    decode_attribute_relation, read_attribute_fragments,
)
from repro.core.attribute_rewriter import rewrite_attribute_plan
from repro.db import algebra
from repro.db.evaluator import evaluate
from repro.db.relation import KRelation
from repro.db.schema import RelationSchema
from repro.db.sql.parser import parse_statement
from repro.db.sql.translator import translate
from repro.semirings import NATURAL
from repro.server import ServerThread

ENGINES = ["row", "columnar", "sqlite"]

#: Selection, projection (equal projected fragments meet as one encoded row
#: of weight > 1), join and union, with outputs of width 1, 3 and both.
QUERIES = [
    "SELECT k, x, s FROM u",
    "SELECT k, x FROM u WHERE x >= 1",
    "SELECT x FROM u",
    "SELECT s, x + 1 AS y FROM u WHERE k <= 1",
    "SELECT v, k FROM c",
    "SELECT c.v, u.x, u.s FROM c, u WHERE c.k = u.k",
    "SELECT k, x FROM u UNION ALL SELECT k, v FROM c",
    "SELECT u.x AS a, c.v AS a FROM c, u WHERE c.k = u.k",
]


def _range(values):
    """A collapsed, open or all-NULL range over ``values``."""
    ordered = st.lists(values, min_size=3, max_size=3).map(sorted).map(tuple)
    return st.one_of(values.map(lambda v: (v, v, v)), ordered,
                     st.just((None, None, None)))


_multiplicities = st.sampled_from(
    [(1, 1, 1), (0, 1, 1), (0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 1, 2)])
#: ``u(k, x, s)``: few distinct values, so fragments share best-guess rows,
#: projections merge, and some fragments are absent from the best guess.
_fragments = st.lists(
    st.tuples(st.tuples(_range(st.integers(0, 2)), _range(st.integers(0, 3)),
                        _range(st.sampled_from(["p", "q"]))),
              _multiplicities),
    min_size=1, max_size=6)


def _relation_u(fragments) -> AttributeBoundsRelation:
    u = AttributeBoundsRelation(RelationSchema("u", ["k", "x", "s"]))
    for ranges, multiplicity in fragments:
        u.add_bounded(ranges, multiplicity)
    return u


def _connection(engine: str, fragments) -> repro.Connection:
    conn = repro.connect(engine=engine, name=f"view-{engine}")
    conn.register_attribute_relation(_relation_u(fragments))
    conn.execute("CREATE TABLE c (k INT, v INT)")
    conn.executemany("INSERT INTO c VALUES (?, ?)",
                     [(0, 1), (1, 1), (1, 3), (2, 0)])
    return conn


def _reference(conn: repro.Connection, fragments):
    """Catalog, triple-layout database and certainty map of ``conn``'s
    tables, from public pieces."""
    return public_attribute_database(conn.uadb, conn.engine,
                                     _relation_u(fragments))


def _canonical(conn: repro.Connection, fragments,
               sql: str) -> AttributeQueryResult:
    """The answer by the public pieces, over the all-triples layout."""
    catalog, database, _ = _reference(conn, fragments)
    logical = translate(parse_statement(sql), catalog)
    rewrite = rewrite_attribute_plan(logical, database.schema)
    assert set(rewrite.widths) == {3}
    encoded = evaluate(rewrite.plan, database, engine=conn.engine)
    return AttributeQueryResult(
        decode_attribute_relation(encoded, attributes=rewrite.columns))


def _assert_same_view(view, expected) -> None:
    assert view.labeled_rows() == expected.labeled_rows()
    assert view.rows() == expected.rows()
    assert view.certain_rows() == expected.certain_rows()
    assert view.certain_rows() == [
        row for row, label in view.labeled_rows() if label.certain]
    assert view.uncertain_rows() == expected.uncertain_rows()
    assert view.bounded_rows() == expected.bounded_rows()
    assert len(view) == len(expected)
    assert view.schema.attribute_names == expected.schema.attribute_names
    assert view.relation == expected.relation
    assert view.pretty() == expected.pretty()


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None)
@given(_fragments)
def test_view_equals_decoding_the_canonical_answer(engine, fragments):
    conn = _connection(engine, fragments)
    try:
        for sql in QUERIES:
            view = conn.query_bounds(sql)
            assert isinstance(view, _EncodedAttributeResult)
            expected = _canonical(conn, fragments, sql)
            _assert_same_view(view, expected)
            # The relation-backed public result labels by the same code.
            _assert_same_view(AttributeQueryResult(view.relation), expected)
    finally:
        conn.close()


def _mixed_fragments():
    return [(((0, 0, 0), (1, 2, 3), ("p", "p", "p")), (1, 1, 1)),
            (((1, 1, 1), (0, 0, 0), (None, None, None)), (0, 1, 2)),
            (((1, 1, 1), (0, 0, 0), ("p", "q", "q")), (1, 1, 1)),
            (((2, 2, 2), (3, 3, 3), ("q", "q", "q")), (0, 0, 1))]


@pytest.mark.parametrize("engine", ENGINES)
def test_widths_are_positional_and_reported(engine):
    """``k`` is collapsed in the data, ``x`` and ``s`` are not; two output
    columns of one name keep their own widths."""
    conn = _connection(engine, _mixed_fragments())
    try:
        widths = {sql: conn._entry(sql, "attribute").output_widths
                  for sql in QUERIES}
        assert widths["SELECT k, x, s FROM u"] == (1, 3, 3)
        assert widths["SELECT v, k FROM c"] == (1, 1)
        assert widths["SELECT k, x FROM u UNION ALL SELECT k, v FROM c"] == (1, 3)
        # SQL renames a repeated alias; a plan built by hand keeps both.
        catalog, database, certain = _reference(conn, _mixed_fragments())
        logical = translate(parse_statement(
            "SELECT u.x AS a, c.v AS b FROM c, u WHERE c.k = u.k"), catalog)
        logical = algebra.Projection(
            logical.child, tuple((expr, "a") for expr, _ in logical.items))
        canonical = rewrite_attribute_plan(logical, database.schema)
        rewrite = rewrite_attribute_plan(logical, database.schema, certain)
        assert rewrite.columns == canonical.columns == ("a", "a")
        assert rewrite.certain_columns == ("a",)
        assert (rewrite.widths, canonical.widths) == ((3, 1), (3, 3))
        result = _EncodedAttributeResult(
            evaluate(rewrite.plan, database, engine=engine),
            rewrite.columns, rewrite.widths)
        assert result.schema.attribute_names == ("a", "a_2")
        assert {name for _, label in result.labeled_rows()
                for name in label.uncertain_attributes} == {"a"}
        _assert_same_view(result, AttributeQueryResult(decode_attribute_relation(
            evaluate(canonical.plan, database, engine=engine),
            attributes=canonical.columns)))

        report = conn.explain(
            "SELECT u.x, c.v FROM c, u WHERE c.k = u.k", mode="attribute")
        assert report["result_width"] == {"fetched": 7, "canonical": 9}
        attribute = repro.connect(annotation="attribute", engine=engine)
        attribute.execute("CREATE TABLE c (k INT, v INT)")
        details = [detail for _, detail in attribute.execute(
            "EXPLAIN SELECT v, k FROM c").fetchall()]
        assert "result width: 5 of 9" in details
        assert "result_width" not in conn.explain("SELECT v FROM c")
        attribute.close()
    finally:
        conn.close()


def test_only_relation_assembles_a_bounds_relation(monkeypatch):
    """The optimisation, pinned without timing."""
    conn = _connection("sqlite", _mixed_fragments())
    attribute = repro.connect(annotation="attribute", engine="sqlite")
    attribute.register_attribute_relation(_relation_u(_mixed_fragments()))
    sql = "SELECT k, x, s FROM u"
    expected = conn.query_bounds(sql).labeled_rows()
    attribute.execute(sql)

    built = []
    original = AttributeBoundsRelation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AttributeBoundsRelation, "__init__", counting)
    result = conn.query_bounds(sql)
    assert result.labeled_rows() == expected
    assert result.rows() == [row for row, _ in expected]
    cursor = attribute.execute(sql)
    assert [column[0] for column in cursor.description] == ["k", "x", "s"]
    assert cursor.fetchall() == result.rows()
    assert cursor.labeled_rows() == expected
    assert built == []

    relation = result.relation
    assert built == [relation]
    assert result.relation is relation
    assert result.bounded_rows() == relation.bounded_rows()
    assert len(result) == len(relation)
    assert built == [relation]
    conn.close()
    attribute.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_certainty_accessors_read_the_labels(engine, monkeypatch):
    """``certain_rows`` and ``uncertain_rows`` split the labelled rows; on a
    session result neither assembles the bounds relation."""
    conn = _connection(engine, _mixed_fragments())
    sql = "SELECT k, x FROM u"
    certain = conn.query_bounds(sql).relation.certain_rows()
    assert certain == [(1, 0)]
    assembled = []
    assemble = AttributeBoundsRelation._from_fragments.__func__
    monkeypatch.setattr(AttributeBoundsRelation, "_from_fragments",
                        classmethod(lambda cls, *args: assembled.append(args)
                                    or assemble(cls, *args)))
    result = conn.query_bounds(sql)
    assert result.certain_rows() == certain
    assert result.uncertain_rows() == [(0, 2)]
    assert assembled == []
    conn.close()


def _encoded(rows, names=("v0", "v0_lb", "v0_ub", "m_lb", "m_bg", "m_ub")):
    relation = KRelation(RelationSchema("answer", list(names)), NATURAL)
    for row in rows:
        relation.add(row, 1)
    return relation


@pytest.mark.parametrize("row", [
    (2, 3, 1, 1, 1, 1),          # lb > ub
    (2, 3, 4, 1, 1, 1),          # best below lb
    (None, 1, 2, 1, 1, 1),       # NULL best, bounded range
    (2, None, 3, 1, 1, 1),       # NULL bound, non-NULL best
    (2, "a", 3, 1, 1, 1),        # incomparable bounds
    (2, 2, 2, 2, 1, 1),          # m_lb > m_bg
    (2, 2, 2, 0, 2, 1),          # m_bg > m_ub
    (2, 2, 2, 1, 1.5, 2),        # non-integer multiplicity
    (2, 2, 2, -1, 1, 1),         # negative multiplicity
])
def test_reader_rejects_corrupt_answers(row):
    encoded = _encoded([(1, 1, 1, 1, 1, 1), row])
    with pytest.raises(RangeError):
        list(read_attribute_fragments(encoded, ["a"], [3]))
    result = _EncodedAttributeResult(encoded, ("a",), (3,))
    for accessor in (result.labeled_rows, result.rows, result.bounded_rows,
                     result.certain_rows, lambda: result.relation):
        with pytest.raises(RangeError):
            accessor()
    with pytest.raises(RangeError):
        decode_attribute_relation(encoded, attributes=["a"])


def test_reader_reads_what_the_widths_say():
    narrow = _encoded([(7, "x", 1, 1, 2)],
                      names=("v0", "v1", "m_lb", "m_bg", "m_ub"))
    assert list(read_attribute_fragments(narrow, ["a", "b"], [1, 1])) == [
        ((7, "x"), (1, 1, 2), ())]
    mixed = _encoded([(7, 2, 1, 3, 0, 1, 1)],
                     names=("v0", "v1", "v1_lb", "v1_ub", "m_lb", "m_bg", "m_ub"))
    assert list(read_attribute_fragments(mixed, ["a", "b"], [1, 3])) == [
        ((7, 2), (0, 1, 1), ((1, 2, 3),))]
    assert decode_attribute_relation(
        mixed, attributes=["a", "b"], widths=[1, 3]).bounded_rows() == [
        (((7, 7, 7), (1, 2, 3)), (0, 1, 1))]
    for widths in ([3, 3], [1, 1], [1]):
        with pytest.raises(RangeError):
            list(read_attribute_fragments(mixed, ["a", "b"], widths))
    # A semiring annotation n stands for n independent fragments.
    weighted = KRelation(narrow.schema, NATURAL)
    weighted.add((7, "x", 1, 1, 2), 3)
    weighted.add((8, "y", 1, 1, 1), 0)
    assert list(read_attribute_fragments(weighted, ["a", "b"], [1, 1])) == [
        ((7, "x"), (3, 3, 6), ())]


def test_the_certain_label_is_shared():
    conn = _connection("sqlite", _mixed_fragments())
    labels = [label for _, label in
              conn.query_bounds("SELECT v, k FROM c").labeled_rows()]
    assert len(labels) == 4 and len({id(label) for label in labels}) == 1
    assert labels[0] == AttributeLabel(True) and labels[0].certain
    assert repr(labels[0]) == ("AttributeLabel(existence_certain=True, "
                               "uncertain_attributes=frozenset())")
    conn.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_certain_fragment_certifies_its_row(engine):
    """Two fragments meet in one best-guess row; the collapsed, certainly
    present one makes it certain, whatever the other's ``x`` range says."""
    t = AttributeBoundsRelation(RelationSchema("t", ["g", "x"]))
    t.add_bounded((1, 5), (1, 1, 1))
    t.add_bounded((1, (4, 5, 6)), (0, 1, 1))
    with repro.connect(engine=engine) as conn:
        conn.register_attribute_relation(t)
        result = conn.query_bounds("SELECT g, x FROM t")
        assert result.certain_rows() == [(1, 5)]
        assert result.uncertain_rows() == []
        assert result.labeled_rows() == [((1, 5), AttributeLabel(True))]
        assert AttributeQueryResult(result.relation).labeled_rows() == [
            ((1, 5), AttributeLabel(True))]


# -- snapshot rule ---------------------------------------------------------------


@pytest.mark.parametrize("engine", ["row", "sqlite"])
def test_result_is_a_snapshot(engine):
    """A result taken before a write does not see it, whichever accessor
    first reads it and however the write reached the table."""
    conn = repro.connect(engine=engine, name=f"au-snapshot-{engine}")
    conn.execute("CREATE TABLE t (a INT, b INT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(10)])
    before = conn.query_bounds("SELECT * FROM t")
    expected = (before.labeled_rows(), before.bounded_rows(), before.relation)
    results = [conn.query_bounds("SELECT * FROM t") for _ in range(3)]
    conn.execute("INSERT INTO t VALUES (100, 100)")
    conn.encoded.relation("t").add((200, 200, 1))
    assert results[0].labeled_rows() == expected[0]
    assert results[1].bounded_rows() == expected[1]
    assert results[2].relation == expected[2]
    for result in results:
        assert len(result) == 10 == len(result.relation)
    assert len(conn.query_bounds("SELECT * FROM t")) == 12
    conn.close()


def test_pool_reader_labels_beside_a_writer_on_the_row_engine():
    pool = ConnectionPool(engine="row", max_connections=2, name="au-reader-writer")
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)",
                         [(i, i) for i in range(1000)])
    errors = []
    done = threading.Event()

    def write() -> None:
        try:
            with pool.connection() as conn:
                for i in range(1000, 1300):
                    conn.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)
        finally:
            done.set()

    def read() -> None:
        try:
            with pool.connection() as conn:
                while not done.is_set():
                    result = conn.query_bounds("SELECT * FROM t")
                    pairs = result.labeled_rows()
                    assert len(result.bounded_rows()) == len(pairs) >= 1000
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    pool.close()


# -- the served body ---------------------------------------------------------------

#: ``POST /query`` in attribute mode over ``m(id, temp)`` below, as the commit
#: before the one-pass reader rendered it (``elapsed_ms`` aside).
PARENT_BODY = (
    b'{"columns":["id","temp"],"types":["any","any"],'
    b'"rows":[[1,20],[2,22],[3,null]],"certain":[true,false,false],'
    b'"row_count":3,"certain_count":1,"elapsed_ms":0,'
    b'"bounds":[{"cells":[[1,1,1],[20,20,20]],"multiplicity":[1,1,1]},'
    b'{"cells":[[2,2,2],[19,22,25]],"multiplicity":[1,1,2]},'
    b'{"cells":[[3,3,3],[null,null,null]],"multiplicity":[0,1,1]}]}')


def test_served_attribute_body_is_byte_identical(tmp_path):
    pool = ConnectionPool(str(tmp_path / "served.uadb"), engine="sqlite",
                          name="served-attribute")
    m = AttributeBoundsRelation(RelationSchema("m", ["id", "temp"]))
    m.add_bounded(((1, 1, 1), (20, 20, 20)), (1, 1, 1))
    m.add_bounded(((2, 2, 2), (19, 22, 25)), (1, 1, 2))
    m.add_bounded(((3, 3, 3), (None, None, None)), (0, 1, 1))
    with pool.connection() as conn:
        conn.register_attribute_relation(m)
        assert conn._entry("SELECT id, temp FROM m",
                           "attribute").output_widths == (1, 3)
    thread = ServerThread(pool=pool, port=0)
    thread.start()
    client = thread.client()
    try:
        response = client._request("POST", "/query", {
            "sql": "SELECT id, temp FROM m", "mode": "attribute"})
        body = response.read()
        assert response.status == 200
        assert re.sub(rb'"elapsed_ms":[0-9.e+-]+', b'"elapsed_ms":0',
                      body) == PARENT_BODY
        assert list(client.stream("SELECT id, temp FROM m",
                                  mode="attribute")) == [
            ((1, 20), True), ((2, 22), False), ((3, None), False)]
    finally:
        client.close()
        thread.stop()
