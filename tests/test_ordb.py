"""Tests for the OR-database model (attribute-level OR-sets)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.db import algebra
from repro.db.evaluator import evaluate
from repro.db.expressions import Column, Comparison, Literal
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.incomplete import ORDatabase, ORTuple, OrSet
from repro.incomplete.kw_database import KWDatabase
from repro.core.labeling import is_c_correct, label_ordb
from repro.core.bestguess import best_guess_world_ordb
from repro.core.uadb import UADatabase


@pytest.fixture
def reading_schema() -> RelationSchema:
    return RelationSchema("readings", [
        Attribute("sensor", DataType.STRING),
        Attribute("hour", DataType.INTEGER),
        Attribute("value", DataType.INTEGER),
    ])


@pytest.fixture
def readings(reading_schema) -> ORDatabase:
    """Sensor readings where some values are ambiguous."""
    ordb = ORDatabase("sensors")
    relation = ordb.create_relation(reading_schema)
    relation.add_tuple(("s1", 1, 10))
    relation.add_tuple(("s1", 2, OrSet([11, 13], probabilities=[0.8, 0.2])))
    relation.add_tuple(("s2", 1, OrSet([7])))
    relation.add_tuple((OrSet(["s2", "s3"]), 2, 9))
    return ordb


# -- OrSet / ORTuple -----------------------------------------------------------------


class TestOrSet:
    def test_rejects_empty_and_bad_probabilities(self):
        with pytest.raises(ValueError):
            OrSet([])
        with pytest.raises(ValueError):
            OrSet([1, 2], probabilities=[0.5])
        with pytest.raises(ValueError):
            OrSet([1, 2], probabilities=[0.9, 0.3])

    def test_best_value_and_probabilities(self):
        cell = OrSet([11, 13], probabilities=[0.2, 0.8])
        assert cell.best_value() == 13
        assert cell.probability_of(11) == pytest.approx(0.2)
        assert cell.probability_of(42) == 0.0
        uniform = OrSet(["a", "b"])
        assert uniform.best_value() == "a"
        assert uniform.probability_of("b") == pytest.approx(0.5)

    def test_singleton(self):
        assert OrSet([5]).is_singleton
        assert not OrSet([5, 6]).is_singleton


class TestORTuple:
    def test_choices_and_counts(self):
        row = ORTuple(("s1", OrSet([1, 2]), OrSet([10, 20])))
        assert row.num_choices() == 4
        assert set(row.choices()) == {
            ("s1", 1, 10), ("s1", 1, 20), ("s1", 2, 10), ("s1", 2, 20),
        }
        assert row.uncertain_positions() == [1, 2]
        assert not row.is_certain()

    def test_best_guess_and_probability(self):
        row = ORTuple(("s1", OrSet([1, 2], probabilities=[0.3, 0.7]), 10))
        assert row.best_guess() == ("s1", 2, 10)
        assert row.row_probability(("s1", 1, 10)) == pytest.approx(0.3)
        assert row.row_probability(("s1", 1, 99)) == 0.0

    def test_singleton_or_set_counts_as_certain(self):
        row = ORTuple((OrSet([7]), 1, 2))
        assert row.is_certain()


# -- relations and databases ------------------------------------------------------------


class TestORRelation:
    def test_arity_and_type_validation(self, reading_schema):
        ordb = ORDatabase()
        relation = ordb.create_relation(reading_schema)
        with pytest.raises(ValueError):
            relation.add_tuple(("s1", 1))
        with pytest.raises(ValueError):
            relation.add_tuple(("s1", OrSet(["not-an-int", 2]), 3))

    def test_statistics(self, readings):
        relation = readings.relation("readings")
        assert len(relation) == 4
        assert len(relation.certain_tuples()) == 2
        assert relation.uncertain_cell_fraction() == pytest.approx(2 / 12)
        assert relation.num_possible_worlds() == 4

    def test_duplicate_relation_names_rejected(self, reading_schema, readings):
        with pytest.raises(ValueError):
            readings.create_relation(reading_schema)


class TestPossibleWorlds:
    def test_world_count_and_enumeration(self, readings):
        incomplete = readings.possible_worlds()
        assert len(incomplete) == 4
        # Every world contains one row per OR-tuple.
        for world in incomplete:
            assert len(world.relation("readings")) == 4

    def test_probabilities_multiply_across_cells(self, readings):
        incomplete = readings.possible_worlds()
        best = incomplete.best_guess_world()
        assert (("s1", 2, 11)) in best.relation("readings")
        index = incomplete.best_guess_index()
        assert incomplete.probabilities[index] == pytest.approx(0.8 * 0.5)

    def test_limit_is_enforced(self, readings):
        with pytest.raises(ValueError):
            readings.possible_worlds(limit=2)

    def test_best_guess_world_matches_cellwise_argmax(self, readings):
        world = best_guess_world_ordb(readings)
        relation = world.relation("readings")
        assert ("s1", 2, 11) in relation
        assert ("s2", 2, 9) in relation


class TestLabelingAndUADB:
    def test_label_ordb_is_c_correct(self, readings):
        kwdb = KWDatabase.from_incomplete(readings.possible_worlds())
        labeling = label_ordb(readings)
        assert is_c_correct(labeling, kwdb)

    def test_label_ordb_type_check(self):
        with pytest.raises(TypeError):
            label_ordb("not an ordb")
        with pytest.raises(TypeError):
            best_guess_world_ordb("not an ordb")

    def test_uadb_from_ordb(self, readings):
        uadb = UADatabase.from_ordb(readings)
        relation = uadb.relation("readings")
        assert relation.is_certain(("s1", 1, 10))
        assert relation.is_certain(("s2", 1, 7))
        assert not relation.is_certain(("s1", 2, 11))
        assert not relation.is_certain(("s2", 2, 9))

    def test_query_over_uadb_preserves_soundness(self, readings):
        uadb = UADatabase.from_ordb(readings)
        plan = algebra.Projection(
            algebra.Selection(
                algebra.RelationRef("readings"),
                Comparison("=", Column("hour"), Literal(1)),
            ),
            ((Column("sensor"), "sensor"),),
        )
        result = uadb.query(plan)
        worlds = [evaluate(plan, world) for world in readings.possible_worlds()]
        for row in result.certain_rows():
            assert all(row in world for world in worlds)


class TestConversions:
    def test_to_xdb_roundtrips_possible_worlds(self, readings):
        xdb = readings.to_xdb()
        direct = {
            frozenset(world.relation("readings").rows())
            for world in readings.possible_worlds()
        }
        via_xdb = {
            frozenset(world.relation("readings").rows())
            for world in xdb.possible_worlds()
        }
        assert direct == via_xdb

    def test_to_xdb_alternative_limit(self, reading_schema):
        ordb = ORDatabase()
        relation = ordb.create_relation(reading_schema)
        relation.add_tuple((OrSet(["a", "b", "c"]), OrSet([1, 2, 3]), OrSet([4, 5, 6])))
        with pytest.raises(ValueError):
            ordb.to_xdb(alternative_limit=10)

    def test_from_ordb(self, readings):
        relation = AttributeBoundsRelation.from_ordb(readings.relation("readings"))
        assert relation.bounded_rows() == [
            ((("s1",) * 3, (1, 1, 1), (10, 10, 10)), (1, 1, 1)),
            ((("s1",) * 3, (2, 2, 2), (11, 11, 13)), (1, 1, 1)),
            ((("s2",) * 3, (1, 1, 1), (7, 7, 7)), (1, 1, 1)),
            ((("s2", "s2", "s3"), (2, 2, 2), (9, 9, 9)), (1, 1, 1)),
        ]
        with repro.connect() as conn:
            conn.register_attribute_relation(relation)
            labels = dict(conn.query_bounds(
                "SELECT sensor, hour, value FROM readings").labeled_rows())
        label = labels[("s1", 2, 11)]
        assert label.existence_certain
        assert label.uncertain_attributes == frozenset({"value"})
        assert labels[("s1", 1, 10)].certain


# -- property: labeling soundness on random OR-databases -----------------------------------


@st.composite
def random_ordbs(draw):
    schema = RelationSchema("r", [
        Attribute("a", DataType.INTEGER),
        Attribute("b", DataType.INTEGER),
    ])
    ordb = ORDatabase("random")
    relation = ordb.create_relation(schema)
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        cells = [index]
        if draw(st.booleans()):
            cells.append(draw(st.integers(min_value=0, max_value=2)))
        else:
            values = draw(st.lists(st.integers(min_value=0, max_value=2),
                                   min_size=2, max_size=3, unique=True))
            cells.append(OrSet(values))
        relation.add_tuple(cells)
    return ordb


@settings(max_examples=40, deadline=None)
@given(random_ordbs())
def test_label_ordb_is_always_c_correct(ordb):
    kwdb = KWDatabase.from_incomplete(ordb.possible_worlds())
    assert is_c_correct(label_ordb(ordb), kwdb)
