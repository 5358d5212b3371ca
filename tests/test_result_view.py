"""``UAQueryResult`` as a labelled view over the engine's answer.

The view must read an ``Enc``-encoded answer exactly as ``decode_relation``
+ ``UARelation.is_certain`` + a ``_row_sort_key`` sort would, without doing
any of the three per accessor.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import ConnectionPool
from repro.api.session import UAQueryResult, _EncodedResult
from repro.core import encoding
from repro.core.encoding import CERTAINTY_COLUMN, decode_relation
from repro.core.uadb import UARelation
from repro.db import algebra
from repro.db.relation import KRelation, _row_sort_key
from repro.db.schema import RelationSchema
from repro.semirings import BOOLEAN, NATURAL

ENCODED_SCHEMA = RelationSchema("answer", ["a", "b", CERTAINTY_COLUMN])

_values = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from([0.5, 2.5]),
                    st.sampled_from(["", "x", "y"]))
_fragments = st.tuples(_values, _values, st.sampled_from([0, 1]))


def _encoded(semiring, annotations):
    """Strategy: encoded relations that may hold zero annotations."""
    return st.dictionaries(_fragments, annotations, max_size=12).map(
        lambda data: KRelation._from_validated(ENCODED_SCHEMA, semiring, data))


encoded_relations = st.one_of(
    _encoded(NATURAL, st.integers(0, 3)),
    _encoded(BOOLEAN, st.booleans()),
)


def _reference(decoded: UARelation):
    pairs = [(row, decoded.is_certain(row)) for row in decoded.rows()]
    pairs.sort(key=lambda pair: _row_sort_key(pair[0]))
    return pairs


def _assert_view(view: UAQueryResult, expected) -> None:
    assert view.labeled_rows() == expected
    assert view.rows() == [row for row, _ in expected]
    assert view.certain_rows() == [row for row, certain in expected if certain]
    assert view.uncertain_rows() == [
        row for row, certain in expected if not certain]
    assert len(view) == len(expected)
    assert view.schema.attribute_names == ("a", "b")


@settings(max_examples=200, deadline=None)
@given(encoded_relations)
def test_view_equals_decode_label_sort(encoded):
    decoded = decode_relation(encoded)
    expected = _reference(decoded)
    view = _EncodedResult(encoded)
    _assert_view(view, expected)
    assert view.relation == decoded
    # A UA-relation source (direct mode, the suite's staged walk) reads the same.
    direct = UAQueryResult(decoded, 0.25)
    _assert_view(direct, expected)
    assert direct.relation is decoded
    assert direct.elapsed == 0.25
    assert sorted(decoded.certain_rows(), key=_row_sort_key) == view.certain_rows()
    assert sorted(decoded.uncertain_rows(), key=_row_sort_key) == view.uncertain_rows()


def test_accessors_return_fresh_lists():
    encoded = KRelation(ENCODED_SCHEMA, NATURAL)
    encoded.add((1, "x", 1), 1)
    view = _EncodedResult(encoded)
    view.labeled_rows().clear()
    view.rows().clear()
    assert view.labeled_rows() == [((1, "x"), True)]


def _connection() -> repro.Connection:
    """Two bag tables whose rows are certain, partly certain or uncertain."""
    conn = repro.connect(name="result-view")
    r = UARelation(RelationSchema("r", ["k", "v"]), conn.uadb.ua_semiring)
    s = UARelation(RelationSchema("s", ["k", "w"]), conn.uadb.ua_semiring)
    for i in range(40):
        r.add_tuple((i % 7, f"v{i % 5}"), certain=i % 3 % 2, determinized=1 + i % 2)
    for i in range(30):
        s.add_tuple((i % 7, i % 3), certain=i % 2, determinized=1)
    conn.register_ua_relation(r)
    conn.register_ua_relation(s)
    return conn


def test_query_labels_with_one_sort_and_no_decode(monkeypatch):
    """The optimisation, pinned without timing: one sort key per distinct
    row, and neither ``decode_relation`` nor a ``UARelation`` on the way."""
    conn = _connection()
    sql = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k"
    expected = conn.query(sql).labeled_rows()
    assert {certain for _, certain in expected} == {True, False}

    def forbidden(*args, **kwargs):
        raise AssertionError("the answer was decoded")

    calls = []

    def counting(row):
        calls.append(row)
        return _row_sort_key(row)

    monkeypatch.setattr(encoding, "decode_relation", forbidden)
    monkeypatch.setattr("repro.api.session.decode_relation", forbidden)
    monkeypatch.setattr(UARelation, "_from_validated", forbidden)
    monkeypatch.setattr(encoding, "_row_sort_key", counting)

    result = conn.query(sql)
    assert result.labeled_rows() == expected
    assert result.rows() == [row for row, _ in expected]
    assert len(result.certain_rows()) + len(result.uncertain_rows()) == len(result)
    assert result.pretty().splitlines()[0].split(" | ")[-1] == "Certain?"
    assert sorted(calls, key=_row_sort_key) == [row for row, _ in expected]

    cursor = conn.execute(sql)
    assert [column[0] for column in cursor.description] == ["v", "w"]
    assert cursor.fetchall() == result.rows()


def test_relation_is_decoded_on_demand():
    conn = _connection()
    sql = "SELECT r.v, s.w FROM r, s WHERE r.k = s.k"
    result = conn.query(sql)
    assert "relation" not in vars(result)
    relation = result.relation
    assert isinstance(relation, UARelation)
    assert relation == conn.query_direct(sql).relation
    assert result.relation is relation
    assert result.labeled_rows() == conn.query_direct(sql).labeled_rows()


def test_positional_and_keyword_construction_compare_by_value():
    relation = _connection().query_direct("SELECT k, v FROM r").relation
    assert UAQueryResult(relation, 0.5) == UAQueryResult(relation=relation, elapsed=0.5)
    assert UAQueryResult(relation).schema is relation.schema


@pytest.mark.parametrize("engine", ["row", "columnar", "sqlite"])
def test_result_is_a_snapshot(engine):
    """A result taken before a write does not see it: the row engine answers
    a bare table reference with the stored relation itself, and the view
    labels and decodes only after the read lock is released."""
    conn = repro.connect(engine=engine, name=f"snapshot-{engine}")
    conn.execute("CREATE TABLE t (a INT, b INT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(i, i) for i in range(10)])
    results = [conn.query("SELECT * FROM t"),
               conn.query_plan(algebra.RelationRef("t")),
               conn.query_direct("SELECT * FROM t")]
    conn.execute("INSERT INTO t VALUES (100, 100)")
    for result in results:
        assert len(result) == 10
        assert len(result.relation) == 10
    assert len(conn.query("SELECT * FROM t")) == 11


def test_pool_reader_labels_beside_a_writer_on_the_row_engine():
    pool = ConnectionPool(engine="row", max_connections=2, name="reader-writer")
    with pool.connection() as conn:
        conn.execute("CREATE TABLE t (a INT, b INT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)",
                         [(i, i) for i in range(2000)])
    errors = []
    done = threading.Event()

    def write() -> None:
        try:
            with pool.connection() as conn:
                for i in range(2000, 2600):
                    conn.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)
        finally:
            done.set()

    def read() -> None:
        try:
            with pool.connection() as conn:
                while not done.is_set():
                    result = conn.query("SELECT * FROM t")
                    pairs = result.labeled_rows()
                    assert len(result.relation) == len(pairs) >= 2000
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pool.close()
    assert not errors
