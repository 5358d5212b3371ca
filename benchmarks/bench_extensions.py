"""Benchmarks for the extension package (the paper's future-work features).

These are ablations beyond the paper's own evaluation:

* **attribute-level versus tuple-level labels** -- same projection workload as
  Figure 15; the attribute-level (AU-DB) ranges, answered through a session's
  ``query_bounds``, eliminate the false negatives caused by projecting away
  uncertain attributes,
* **UAP-DB (certain/best-guess/possible triples) versus UA-DB (pairs)** -- the
  price of carrying the extra possible component through an RA+ query, and
  the cost of the difference (negation) query it enables,
* **bounded aggregation** -- aggregation with certainty bounds versus a plain
  best-guess aggregate,
* **provenance polynomials** -- annotating a join with N[X] versus plain bag
  multiplicities.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.core import AttributeBoundsRelation
from repro.db import algebra
from repro.db.database import Database
from repro.db.evaluator import evaluate
from repro.db.expressions import Column, Comparison, Literal
from repro.db.relation import KRelation
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.semirings import NATURAL, POLYNOMIAL, Polynomial
from repro.incomplete import ORDatabase, OrSet
from repro.core.uadb import UADatabase
from repro.extensions import UAPDatabase, ua_aggregate

NUM_ROWS = 400
UNCERTAIN_CELL_RATE = 0.10

SCHEMA = RelationSchema("orders", [
    Attribute("order_id", DataType.INTEGER),
    Attribute("region", DataType.STRING),
    Attribute("status", DataType.STRING),
    Attribute("amount", DataType.INTEGER),
])

REGIONS = ["east", "west", "north", "south"]
STATUSES = ["open", "shipped", "returned"]


def _generate_ordb(seed: int = 11) -> ORDatabase:
    rng = random.Random(seed)
    ordb = ORDatabase("orders_db")
    relation = ordb.create_relation(SCHEMA)
    for order_id in range(NUM_ROWS):
        def cell(value, candidates):
            if rng.random() < UNCERTAIN_CELL_RATE:
                alternative = rng.choice([c for c in candidates if c != value])
                return OrSet([value, alternative])
            return value

        region = rng.choice(REGIONS)
        status = rng.choice(STATUSES)
        amount = rng.randint(1, 500)
        relation.add_tuple((
            order_id,
            cell(region, REGIONS),
            cell(status, STATUSES),
            cell(amount, [amount + delta for delta in (-10, 10, 25)]),
        ))
    return ordb


@pytest.fixture(scope="module")
def ordb():
    return _generate_ordb()


@pytest.fixture(scope="module")
def tuple_level(ordb):
    return UADatabase.from_ordb(ordb)


@pytest.fixture(scope="module")
def attribute_level(ordb):
    conn = repro.connect()
    conn.register_attribute_relation(
        AttributeBoundsRelation.from_ordb(ordb.relation("orders")))
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def uapdb(ordb):
    return UAPDatabase.from_xdb(ordb.to_xdb())


PROJECTION_PLAN = algebra.Projection(
    algebra.RelationRef("orders"),
    ((Column("order_id"), "order_id"), (Column("region"), "region")),
)

SELECTION_PLAN = algebra.Projection(
    algebra.Selection(
        algebra.RelationRef("orders"),
        Comparison("=", Column("status"), Literal("shipped")),
    ),
    ((Column("order_id"), "order_id"), (Column("amount"), "amount")),
)


# -- attribute-level versus tuple-level labels ---------------------------------------------


def test_ablation_tuple_level_projection(benchmark, tuple_level):
    result = benchmark(lambda: tuple_level.query(PROJECTION_PLAN))
    assert len(result) == NUM_ROWS


PROJECTION_SQL = "SELECT order_id, region FROM orders"


def test_ablation_attribute_level_projection(benchmark, attribute_level):
    result = benchmark(
        lambda: attribute_level.query_bounds(PROJECTION_SQL).labeled_rows())
    assert len(result) == NUM_ROWS


def test_ablation_attribute_level_recovers_false_negatives(benchmark, ordb, tuple_level,
                                                           attribute_level):
    def run():
        tuple_result = tuple_level.query(PROJECTION_PLAN)
        attribute_result = attribute_level.query_bounds(PROJECTION_SQL)
        return tuple_result, attribute_result

    tuple_result, attribute_result = benchmark.pedantic(run, rounds=1, iterations=1)
    tuple_certain = set(tuple_result.certain_rows())
    attribute_certain = set(attribute_result.certain_rows())
    # The attribute-level labels certify a superset of the tuple-level labels:
    # rows whose only uncertainty sits in the projected-away columns.
    assert tuple_certain <= attribute_certain
    assert len(attribute_certain) > len(tuple_certain)


# -- UAP triples versus UA pairs -------------------------------------------------------------


def test_ablation_ua_pair_selection(benchmark, tuple_level):
    result = benchmark(lambda: tuple_level.query(SELECTION_PLAN))
    assert len(result) > 0


def test_ablation_uap_triple_selection(benchmark, uapdb):
    result = benchmark(lambda: uapdb.query(SELECTION_PLAN))
    assert len(result) > 0


def test_extension_uap_difference_query(benchmark, uapdb):
    shipped = algebra.Projection(
        algebra.Selection(
            algebra.RelationRef("orders"),
            Comparison("=", Column("status"), Literal("shipped")),
        ),
        ((Column("order_id"), "order_id"),),
    )
    returned = algebra.Projection(
        algebra.Selection(
            algebra.RelationRef("orders"),
            Comparison("=", Column("status"), Literal("returned")),
        ),
        ((Column("order_id"), "order_id"),),
    )
    result = benchmark(lambda: uapdb.query(algebra.Difference(shipped, returned)))
    assert result.check_invariant()


# -- bounded aggregation ---------------------------------------------------------------------


AGGREGATE_PLAN = algebra.Aggregate(
    algebra.RelationRef("orders"),
    ((Column("region"), "region"),),
    (
        algebra.AggregateFunction("count", None, "orders"),
        algebra.AggregateFunction("sum", Column("amount"), "revenue"),
    ),
)


def test_extension_bounded_aggregation(benchmark, uapdb):
    rows = benchmark(lambda: ua_aggregate(uapdb, AGGREGATE_PLAN))
    assert {row.key[0] for row in rows} == set(REGIONS)
    for row in rows:
        bound = row.aggregate("revenue")
        assert bound.lower <= bound.value <= bound.upper


def test_extension_plain_best_guess_aggregation(benchmark, tuple_level):
    best_guess = tuple_level.best_guess_database()
    result = benchmark(lambda: evaluate(AGGREGATE_PLAN, best_guess))
    assert len(result) == len(REGIONS)


# -- provenance polynomials ------------------------------------------------------------------


@pytest.fixture(scope="module")
def annotated_databases(ordb):
    """The best-guess orders joined with a region lookup, annotated two ways."""
    lookup_schema = RelationSchema("region_info", [
        Attribute("name", DataType.STRING),
        Attribute("manager", DataType.STRING),
    ])
    bag_db = Database(NATURAL, "bag")
    poly_db = Database(POLYNOMIAL, "poly")
    orders_bag = KRelation(SCHEMA, NATURAL)
    orders_poly = KRelation(SCHEMA, POLYNOMIAL)
    best_guess = UADatabase.from_ordb(ordb).best_guess_database().relation("orders")
    for index, row in enumerate(best_guess.rows()):
        orders_bag.add(row, 1)
        orders_poly.add(row, Polynomial.variable(f"o{index}"))
    lookup_bag = KRelation(lookup_schema, NATURAL)
    lookup_poly = KRelation(lookup_schema, POLYNOMIAL)
    for index, region in enumerate(REGIONS):
        lookup_bag.add((region, f"manager-{index}"), 1)
        lookup_poly.add((region, f"manager-{index}"), Polynomial.variable(f"r{index}"))
    bag_db.add_relation(orders_bag)
    bag_db.add_relation(lookup_bag)
    poly_db.add_relation(orders_poly)
    poly_db.add_relation(lookup_poly)
    return bag_db, poly_db


JOIN_PLAN = algebra.Projection(
    algebra.Join(
        algebra.RelationRef("orders"), algebra.RelationRef("region_info"),
        Comparison("=", Column("region"), Column("name")),
    ),
    ((Column("order_id"), "order_id"), (Column("manager"), "manager")),
)


def test_extension_bag_annotated_join(benchmark, annotated_databases):
    bag_db, _ = annotated_databases
    result = benchmark(lambda: evaluate(JOIN_PLAN, bag_db))
    assert len(result) == NUM_ROWS


def test_extension_polynomial_annotated_join(benchmark, annotated_databases):
    _, poly_db = annotated_databases
    result = benchmark(lambda: evaluate(JOIN_PLAN, poly_db))
    assert len(result) == NUM_ROWS
