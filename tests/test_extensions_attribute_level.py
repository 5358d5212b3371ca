"""Attribute-level labels of x-DB sources, answered by the range rewriter.

An x-relation enters attribute mode as one range fragment per x-tuple
(:meth:`AttributeBoundsRelation.from_xdb`); SQL over it runs through
:meth:`Connection.query_bounds`, and each answer row's
:class:`AttributeLabel` says whether it certainly exists and which of its
attributes may vary across worlds.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, AttributeLabel, RangeError,
)
from repro.core.attribute_rewriter import AttributeRewriteError
from repro.db.schema import Attribute, DataType, RelationSchema, SchemaError
from repro.incomplete import XDatabase


@pytest.fixture
def person_schema() -> RelationSchema:
    return RelationSchema("person", [
        Attribute("id", DataType.INTEGER),
        Attribute("name", DataType.STRING),
        Attribute("city", DataType.STRING),
    ])


@pytest.fixture
def person_xdb(person_schema) -> XDatabase:
    """Rows whose city (and sometimes existence) is uncertain."""
    xdb = XDatabase("people")
    relation = xdb.create_relation(person_schema)
    relation.add_certain((1, "alice", "buffalo"))
    # Name is fixed, city differs between the alternatives.
    relation.add_alternatives([(2, "bob", "chicago"), (2, "bob", "tucson")],
                              probabilities=[0.7, 0.3])
    # Optional tuple: may be entirely absent.
    relation.add_alternatives([(3, "carol", "buffalo")], probabilities=[0.6])
    return xdb


def _attribute_session(xdb: XDatabase) -> repro.Connection:
    """A connection holding every x-relation of ``xdb`` as range fragments."""
    conn = repro.connect()
    for x_relation in xdb:
        conn.register_attribute_relation(AttributeBoundsRelation.from_xdb(x_relation))
    return conn


def _labels(conn: repro.Connection, sql: str):
    return dict(conn.query_bounds(sql).labeled_rows())


def _tuple_certain(xdb: XDatabase, sql: str):
    with repro.connect() as conn:
        conn.register_xdb(xdb)
        return set(conn.query(sql).certain_rows())


# -- labels ------------------------------------------------------------------------


class TestAttributeLabel:
    def test_certain_requires_both_conditions(self):
        assert AttributeLabel(True).certain
        assert not AttributeLabel(False).certain
        assert not AttributeLabel(True, frozenset({"city"})).certain

    def test_attribute_certain_is_case_insensitive(self):
        label = AttributeLabel(True, frozenset({"City"}))
        assert not label.attribute_certain("city")
        assert not label.attribute_certain("CITY")
        assert label.attribute_certain("name")


# -- labeling schemes -----------------------------------------------------------------


class TestLabelingSchemes:
    def test_from_xdb_flags(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            labels = _labels(conn, "SELECT id, name, city FROM person")
        alice = labels[(1, "alice", "buffalo")]
        bob = labels[(2, "bob", "chicago")]
        carol = labels[(3, "carol", "buffalo")]
        assert alice.certain
        assert bob.existence_certain and not bob.certain
        assert bob.uncertain_attributes == frozenset({"city"})
        assert not carol.existence_certain and not carol.uncertain_attributes

    def test_from_xdb_fragments(self, person_xdb, person_schema):
        person = person_xdb.relation("person")
        # Omitted from the best guess (0.2 < 1 - 0.4): m_bg = 0, and the
        # best values are the first alternative's.
        person.add_alternatives([(4, "dan", "utica"), (4, "dan", "albany")],
                                probabilities=[0.2, 0.2])
        assert AttributeBoundsRelation.from_xdb(person).bounded_rows() == [
            (((1, 1, 1), ("alice",) * 3, ("buffalo",) * 3), (1, 1, 1)),
            (((2, 2, 2), ("bob",) * 3, ("chicago", "chicago", "tucson")), (1, 1, 1)),
            (((3, 3, 3), ("carol",) * 3, ("buffalo",) * 3), (0, 1, 1)),
            (((4, 4, 4), ("dan",) * 3, ("albany", "utica", "utica")), (0, 0, 1)),
        ]
        mixed = XDatabase("mixed").create_relation(person_schema)
        mixed.add_alternatives([(5, "eve", None), (5, "eve", "rome")])
        with pytest.raises(RangeError, match="'person'.*'city'"):
            AttributeBoundsRelation.from_xdb(mixed)

    def test_row_level_view_is_backwards_compatible(self, person_xdb):
        """A tuple is certain at the attribute level iff label_xdb certifies it."""
        sql = "SELECT id, name, city FROM person"
        with _attribute_session(person_xdb) as conn:
            result = conn.query_bounds(sql)
            attribute_certain = set(result.certain_rows())
            rows = result.rows()
        tuple_certain = _tuple_certain(person_xdb, sql)
        for row in rows:
            assert (row in attribute_certain) == (row in tuple_certain)

    def test_duplicate_relation_names_rejected(self, person_xdb):
        relation = AttributeBoundsRelation.from_xdb(person_xdb.relation("person"))
        with repro.connect() as conn:
            conn.register_attribute_relation(relation)
            with pytest.raises(SchemaError):
                conn.register_attribute_relation(relation)


# -- query propagation ------------------------------------------------------------------


class TestQueryPropagation:
    def test_projection_onto_certain_attributes_recovers_certainty(self, person_xdb):
        """Projecting away the uncertain city makes bob's answer certain."""
        sql = "SELECT id, name FROM person"
        with _attribute_session(person_xdb) as conn:
            labels = _labels(conn, sql)
        assert labels[(1, "alice")].certain
        assert labels[(2, "bob")].certain          # recovered certainty
        assert not labels[(3, "carol")].certain    # existence still uncertain
        # The tuple-level UA-DB misclassifies bob (a false negative).
        assert (2, "bob") not in _tuple_certain(person_xdb, sql)

    def test_projection_keeping_uncertain_attribute_stays_uncertain(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            labels = _labels(conn, "SELECT id, city FROM person")
        assert labels[(1, "buffalo")].certain            # alice is fully certain
        assert not labels[(2, "chicago")].certain        # bob's city is uncertain
        assert not labels[(3, "buffalo")].certain        # carol may be absent
        label = labels[(2, "chicago")]
        assert label.existence_certain
        assert label.uncertain_attributes == frozenset({"city"})

    def test_selection_on_certain_attribute_keeps_certainty(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            labels = _labels(conn, "SELECT id, name, city FROM person WHERE name = 'bob'")
        label = labels[(2, "bob", "chicago")]
        assert label.existence_certain
        assert not label.certain  # city still uncertain

    def test_selection_on_uncertain_attribute_demotes_existence(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            labels = _labels(
                conn, "SELECT id, name, city FROM person WHERE city = 'chicago'")
        label = labels[(2, "bob", "chicago")]
        assert not label.existence_certain

    def test_join_requires_certain_join_attributes(self, person_schema):
        visits_schema = RelationSchema("visit", [
            Attribute("person", DataType.STRING),
            Attribute("place", DataType.STRING),
        ])
        xdb = XDatabase("joined")
        people = xdb.create_relation(person_schema)
        people.add_certain((1, "alice", "buffalo"))
        people.add_alternatives([(2, "bob", "chicago"), (2, "bob", "tucson")])
        visits = xdb.create_relation(visits_schema)
        visits.add_certain(("alice", "museum"))
        visits.add_certain(("bob", "stadium"))
        with _attribute_session(xdb) as conn:
            result = conn.query_bounds(
                "SELECT p.name, v.place FROM person p, visit v "
                "WHERE p.name = v.person")
            certain = set(result.certain_rows())
        assert ("alice", "museum") in certain
        assert ("bob", "stadium") in certain

    def test_join_on_uncertain_attribute_is_not_certain(self, person_schema):
        city_schema = RelationSchema("cities", [
            Attribute("city", DataType.STRING),
            Attribute("state", DataType.STRING),
        ])
        xdb = XDatabase("geo")
        people = xdb.create_relation(person_schema)
        people.add_alternatives([(2, "bob", "chicago"), (2, "bob", "tucson")])
        cities = xdb.create_relation(city_schema)
        cities.add_certain(("chicago", "IL"))
        with _attribute_session(xdb) as conn:
            pairs = conn.query_bounds(
                "SELECT p.id, p.city, c.state FROM person p, cities c "
                "WHERE p.city = c.city").labeled_rows()
        assert len(pairs) == 1
        assert not pairs[0][1].existence_certain

    def test_union_merges_labels(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            result = conn.query_bounds(
                "SELECT id, name, city FROM person "
                "UNION ALL SELECT id, name, city FROM person")
            single = conn.query_bounds("SELECT id, name, city FROM person")
        assert (1, "alice", "buffalo") in result.certain_rows()
        # Equal fragments merge, their multiplicities adding up.
        assert len(result) == len(single)
        assert result.rows() == single.rows()
        assert [m for _, m in result.bounded_rows()] == [
            tuple(2 * n for n in m) for _, m in single.bounded_rows()]

    def test_unsupported_operator_raises(self, person_xdb):
        with _attribute_session(person_xdb) as conn:
            with pytest.raises(AttributeRewriteError):
                conn.query_bounds("SELECT id FROM person ORDER BY id LIMIT 1")
