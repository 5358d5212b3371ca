"""Integration tests for the UA-DB SQL front-end (the paper's middleware)."""

from __future__ import annotations

import pytest

import repro
from repro.core.uadb import UADatabase
from repro.db.relation import bag_relation
from repro.db.schema import RelationSchema
from repro.semirings import BOOLEAN, NATURAL
from repro.incomplete import CTableDatabase, TIDatabase, Variable, XDatabase
from repro.incomplete.conditions import ComparisonAtom

GEO_QUERY = (
    "SELECT a.id, l.locale, l.state FROM ADDR a, LOC l "
    "WHERE contains(l.rect, a.geocoded)"
)


@pytest.fixture
def geo_frontend(geocoding_xdb):
    frontend = repro.connect(NATURAL, "geo", cache_size=0)
    frontend.register_xdb(geocoding_xdb)
    return frontend


def test_geocoding_example_labels(geo_frontend):
    """The running example (Figures 2/3): certain vs uncertain result tuples."""
    result = geo_frontend.query(GEO_QUERY)
    labels = {row[:2]: certain for row, certain in
              ((row, result.relation.is_certain(row)) for row in result.rows())}
    # Addresses 1 and 4 are certain; addresses 2 and 3 are uncertain.
    certain_ids = {row[0] for row, certain in
                   ((r, result.relation.is_certain(r)) for r in result.rows()) if certain}
    uncertain_ids = {row[0] for row in result.uncertain_rows()}
    assert 1 in certain_ids and 4 in certain_ids
    assert 2 in uncertain_ids or 3 in uncertain_ids
    assert 2 not in certain_ids and 3 not in certain_ids


def test_rewritten_equals_direct_evaluation(geo_frontend):
    rewritten = geo_frontend.query(GEO_QUERY)
    direct = geo_frontend.query_direct(GEO_QUERY)
    assert sorted(rewritten.labeled_rows()) == sorted(direct.labeled_rows())


def test_result_size_matches_deterministic(geo_frontend):
    ua_result = geo_frontend.query(GEO_QUERY)
    det_result, _ = geo_frontend.query_deterministic(GEO_QUERY)
    assert len(ua_result.relation) == len(det_result)


def test_frontend_register_deterministic_everything_certain():
    schema = RelationSchema("t", ["a", "b"])
    frontend = repro.connect(NATURAL, "d")
    frontend.register_deterministic(bag_relation(schema, [(1, "x"), (2, "y")]))
    result = frontend.query("SELECT a, b FROM t WHERE a >= 1")
    assert all(certain for _, certain in result.labeled_rows())


def test_frontend_register_tidb_sources():
    schema = RelationSchema("r", ["a", "b"])
    tidb = TIDatabase("ti")
    relation = tidb.create_relation(schema)
    relation.add((1, "keep"), probability=1.0)
    relation.add((2, "maybe"), probability=0.8)
    relation.add((3, "drop"), probability=0.2)
    frontend = repro.connect(NATURAL, "ti")
    frontend.register_tidb(tidb)
    result = frontend.query("SELECT a, b FROM r")
    rows = dict(result.labeled_rows())
    assert rows[(1, "keep")] is True
    assert rows[(2, "maybe")] is False
    assert (3, "drop") not in rows  # below the best-guess threshold


def test_frontend_register_ctable_sources():
    x = Variable("X")
    database = CTableDatabase("c", domains={x: [1, 2]})
    schema = RelationSchema("r", ["a", "b"])
    ctable = database.create_relation(schema)
    ctable.add_tuple((1, "always"))
    ctable.add_tuple((2, "conditional"), ComparisonAtom("=", x, 1))
    frontend = repro.connect(NATURAL, "c")
    frontend.register_ctable(database)
    result = frontend.query("SELECT a, b FROM r")
    rows = dict(result.labeled_rows())
    assert rows[(1, "always")] is True
    assert rows[(2, "conditional")] is False


def test_frontend_query_with_projection_join_and_union(geo_frontend):
    union_query = (
        "SELECT id FROM ADDR WHERE id <= 2 UNION ALL SELECT id FROM ADDR WHERE id >= 2"
    )
    result = geo_frontend.query(union_query)
    # id 2 appears twice under bag semantics.
    assert result.relation.determinized_component((2,)) == 2
    direct = geo_frontend.query_direct(union_query)
    assert sorted(result.labeled_rows()) == sorted(direct.labeled_rows())


def test_frontend_preserves_certainty_through_selection(geo_frontend):
    result = geo_frontend.query("SELECT id, address FROM ADDR WHERE id = 1")
    assert result.labeled_rows() == [((1, "51 Comstock"), True)]
    result = geo_frontend.query("SELECT id, address FROM ADDR WHERE id = 3")
    assert result.labeled_rows() == [((3, "499 Woodlawn"), False)]


def test_frontend_pretty_output(geo_frontend):
    result = geo_frontend.query("SELECT id, address FROM ADDR")
    text = result.pretty()
    assert "Certain?" in text
    assert "true" in text and "false" in text


def test_frontend_bag_multiplicities_roundtrip():
    # A bag UA-database registered directly: multiplicities survive queries.
    uadb = UADatabase(NATURAL, "bag")
    schema = RelationSchema("r", ["a"])
    relation = uadb.create_relation(schema)
    relation.add_tuple(("x",), certain=2, determinized=4)
    relation.add_tuple(("y",), certain=0, determinized=1)
    frontend = repro.connect(NATURAL, "bag")
    frontend.register_ua_database(uadb)
    result = frontend.query("SELECT a FROM r")
    assert result.relation.annotation(("x",)).as_tuple() == (2, 4)
    assert result.relation.annotation(("y",)).as_tuple() == (0, 1)


def test_frontend_catalogs_expose_schemas(geo_frontend):
    assert "ADDR" in geo_frontend.catalog
    encoded = geo_frontend.encoded_catalog.get("ADDR")
    assert encoded.attribute_names[-1] == "C"


def test_labeled_rows_sorted_for_stable_output():
    """labeled_rows promises sorted `(row, certain?)` pairs; pin it."""
    uadb = UADatabase(NATURAL, "sortcheck")
    relation = uadb.create_relation(RelationSchema("r", ["a", "b"]))
    # Insert out of order, with a NULL and mixed certainty.
    relation.add_tuple((3, "z"), certain=1, determinized=1)
    relation.add_tuple((1, "x"), certain=0, determinized=1)
    relation.add_tuple((None, "m"), certain=1, determinized=1)
    relation.add_tuple((2, "y"), certain=1, determinized=1)
    frontend = repro.connect(NATURAL, "sortcheck")
    frontend.register_ua_database(uadb)
    result = frontend.query("SELECT a, b FROM r")
    rows = [row for row, _ in result.labeled_rows()]
    assert rows == [(None, "m"), (1, "x"), (2, "y"), (3, "z")]
    # Sorting is deterministic regardless of insertion order.
    assert result.labeled_rows() == result.labeled_rows()


def test_frontend_is_a_connection_shim(geo_frontend, geocoding_xdb):
    """``cache_size=0`` compiles every time; a positive size caches plans."""
    from repro.api import Connection

    assert isinstance(geo_frontend, Connection)
    # With the plan cache disabled, per-call timings keep the
    # compile-every-time semantics the paper experiments measure.
    geo_frontend.query(GEO_QUERY)
    geo_frontend.query(GEO_QUERY)
    assert geo_frontend.plan_cache.stats()["hits"] == 0
    cached = repro.connect(NATURAL, "geo", cache_size=16)
    cached.register_xdb(geocoding_xdb)
    cached.query(GEO_QUERY)
    cached.query(GEO_QUERY)
    assert cached.plan_cache.stats()["hits"] == 1


def test_query_result_len_and_rows(geo_frontend):
    result = geo_frontend.query("SELECT id FROM ADDR")
    assert len(result) == 4
    assert len(result.rows()) == 4
    assert set(result.certain_rows()) | set(result.uncertain_rows()) == set(result.rows())
