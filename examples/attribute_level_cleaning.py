"""Attribute-level uncertainty: fewer false negatives on dirty sensor data.

A maintenance team imputes missing or garbled cells in a sensor-reading feed,
keeping every candidate repair as an OR-set.  The paper's tuple-level
labeling marks a whole row uncertain as soon as one cell is ambiguous, so a
report that never looks at the ambiguous column still loses its certainty
marks.  The attribute-level (AU-DB) reading keeps one value range per cell --
from the smallest to the largest candidate repair -- so projections onto
clean columns have collapsed ranges and stay certain.

Run with::

    python examples/attribute_level_cleaning.py
"""

from __future__ import annotations

import repro
from repro.db import algebra
from repro.db.expressions import Column, Comparison, Literal
from repro.db.schema import Attribute, DataType, RelationSchema
from repro.incomplete import ORDatabase, OrSet
from repro.core import AttributeBoundsRelation, UADatabase


def build_readings() -> ORDatabase:
    """Hourly readings; some values and one sensor id needed repair."""
    schema = RelationSchema("readings", [
        Attribute("sensor", DataType.STRING),
        Attribute("hour", DataType.INTEGER),
        Attribute("value", DataType.INTEGER),
        Attribute("status", DataType.STRING),
    ])
    ordb = ORDatabase("plant_floor")
    relation = ordb.create_relation(schema)
    relation.add_tuple(("s1", 1, 62, "ok"))
    relation.add_tuple(("s1", 2, OrSet([64, 71], probabilities=[0.75, 0.25]), "ok"))
    relation.add_tuple(("s2", 1, 58, "ok"))
    relation.add_tuple(("s2", 2, OrSet([90, 95]), "alert"))
    relation.add_tuple((OrSet(["s3", "s8"]), 1, 66, "ok"))
    relation.add_tuple(("s4", 1, 61, "ok"))
    return ordb


def main() -> None:
    ordb = build_readings()
    relation = ordb.relation("readings")
    print(f"{len(relation)} readings, "
          f"{relation.uncertain_cell_fraction():.0%} of cells carry repairs, "
          f"{len(relation.certain_tuples())} rows are completely clean.\n")

    # The report: which sensors raised which status in hour window 1-2?
    plan = algebra.Projection(
        algebra.Selection(
            algebra.RelationRef("readings"),
            Comparison("<=", Column("hour"), Literal(2)),
        ),
        ((Column("sensor"), "sensor"), (Column("status"), "status")),
    )

    # Paper's tuple-level labeling (via the x-DB encoding of the OR-database).
    tuple_level = UADatabase.from_ordb(ordb).query(plan)
    # Attribute-level ranges of the same OR-database, queried in SQL.
    with repro.connect() as conn:
        conn.register_attribute_relation(AttributeBoundsRelation.from_ordb(relation))
        attribute_level = conn.query_bounds(
            "SELECT sensor, status FROM readings WHERE hour <= 2")
        attribute_certain = set(attribute_level.certain_rows())

    print("sensor   status   tuple-level   attribute-level")
    for row in sorted(set(tuple_level.rows()) | set(attribute_level.rows())):
        tuple_mark = "certain" if tuple_level.is_certain(row) else "uncertain"
        attr_mark = "certain" if row in attribute_certain else "uncertain"
        print(f"{row[0]:<9}{row[1]:<9}{tuple_mark:<14}{attr_mark}")

    recovered = [
        row for row in attribute_certain if not tuple_level.is_certain(row)
    ]
    print(f"\nThe attribute-level labels recover {len(recovered)} certain answer(s) "
          "that the tuple-level labeling misclassifies: the report never reads "
          "the repaired 'value' column, so its ambiguity is irrelevant.")


if __name__ == "__main__":
    main()
