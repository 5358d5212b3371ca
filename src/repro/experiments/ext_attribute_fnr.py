"""Extension ablation: tuple-level versus attribute-level projection FNR.

The Figure 15 experiment measures how often the paper's tuple-level labeling
misclassifies a certain projection answer as uncertain.  Those false
negatives arise exactly when a projection drops every attribute on which an
x-tuple's alternatives disagree.  The attribute-level (AU-DB) reading of the
x-DB (:meth:`~repro.core.attribute_bounds.AttributeBoundsRelation.from_xdb`)
keeps one value range per attribute, so a projection onto attributes whose
alternatives agree has collapsed ranges and certifies those answers.  This
experiment re-runs the Figure 15 workload with both labelings -- the
attribute level through :meth:`~repro.api.session.Connection.query_bounds` --
and reports their false-negative rates side by side.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.api.session import connect
from repro.core.attribute_bounds import AttributeBoundsRelation
from repro.db import algebra
from repro.db.expressions import Column
from repro.core.uadb import UADatabase
from repro.experiments.projection_fnr import (
    ground_truth_certain_projection, random_projection_positions,
)
from repro.experiments.runner import ExperimentTable
from repro.workloads.realworld import DATASET_PROFILES, generate_dataset


def run(datasets: Optional[Sequence[str]] = None, scale: float = 0.0005,
        projections_per_width: int = 5, max_widths: int = 5,
        seed: int = 23, show: bool = True) -> ExperimentTable:
    """Compare tuple-level and attribute-level labels on random projections."""
    datasets = list(datasets) if datasets is not None else list(DATASET_PROFILES)[:3]
    rng = random.Random(seed)
    table = ExperimentTable(
        title="Extension ablation: projection FNR, tuple-level vs attribute-level labels",
        columns=["dataset", "projection_attrs", "fnr_tuple_level", "fnr_attribute_level"],
    )
    for name in datasets:
        dataset = generate_dataset(name, scale=scale, seed=seed)
        relation_name = dataset.schema.name
        x_relation = dataset.xdb.relation(relation_name)
        tuple_level = UADatabase.from_xdb(dataset.xdb)
        with connect() as attribute_level:
            attribute_level.register_attribute_relation(
                AttributeBoundsRelation.from_xdb(x_relation))
            arity = dataset.schema.arity
            for width in _projection_widths(arity, max_widths):
                tuple_rates = []
                attribute_rates = []
                for _ in range(projections_per_width):
                    positions = random_projection_positions(arity, width, rng)
                    names = [dataset.schema.attribute_names[p] for p in positions]
                    plan = algebra.Projection(
                        algebra.RelationRef(relation_name),
                        tuple((Column(column), column) for column in names),
                    )
                    truth = set(ground_truth_certain_projection(x_relation, positions))
                    if not truth:
                        tuple_rates.append(0.0)
                        attribute_rates.append(0.0)
                        continue
                    tuple_certain = set(tuple_level.query(plan).certain_rows())
                    attribute_certain = set(attribute_level.query_bounds(
                        f"SELECT {', '.join(names)} FROM {relation_name}").certain_rows())
                    tuple_rates.append(len(truth - tuple_certain) / len(truth))
                    attribute_rates.append(len(truth - attribute_certain) / len(truth))
                table.add_row(
                    name, width,
                    sum(tuple_rates) / len(tuple_rates),
                    sum(attribute_rates) / len(attribute_rates),
                )
    if show:
        table.show()
    return table


def _projection_widths(arity: int, max_widths: int) -> Sequence[int]:
    """A small spread of projection widths from 1 up to the relation's arity."""
    if arity <= max_widths:
        return list(range(1, arity + 1))
    step = max(1, arity // max_widths)
    widths = list(range(1, arity + 1, step))
    if widths[-1] != arity:
        widths.append(arity)
    return widths
