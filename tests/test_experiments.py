"""Integration tests: every experiment harness runs and produces sensible shapes.

These use tiny parameters (seconds, not minutes); the benchmarks directory
re-runs the same harnesses with the paper-scale defaults.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentTable
from repro.experiments import (
    fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19,
    fig20, fig21,
)
from repro.experiments.pdbench_harness import (
    build_connection, default_instance, measure_query,
)
from repro.experiments.projection_fnr import (
    bag_projection_error_rate, ground_truth_certain_projection,
    projection_false_negative_rate, quartiles, uadb_labeled_projection,
)
from repro.experiments.runner import format_seconds


# -- runner utilities -----------------------------------------------------------------


def test_experiment_table_helpers():
    table = ExperimentTable("demo", ["a", "b"])
    table.add_row(1, 0.5)
    table.add_row(2, 0.25)
    assert table.column("a") == [1, 2]
    assert table.to_dicts()[0] == {"a": 1, "b": 0.5}
    assert "demo" in table.pretty()
    with pytest.raises(ValueError):
        table.add_row(1)
    assert format_seconds(0.5).endswith("ms")
    assert format_seconds(2.0).endswith("s")


def test_quartiles():
    low, q25, median, q75, high = quartiles([0.0, 1.0, 2.0, 3.0, 4.0])
    assert (low, median, high) == (0.0, 2.0, 4.0)
    assert q25 == pytest.approx(1.0)
    assert quartiles([]) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert quartiles([0.7]) == (0.7, 0.7, 0.7, 0.7, 0.7)


# -- projection ground truth vs engine evaluation --------------------------------------------


def test_projection_ground_truth_matches_possible_worlds(geocoding_xdb):
    relation = geocoding_xdb.relation("ADDR")
    positions = [0, 1]  # project away the uncertain geocode column
    truth = ground_truth_certain_projection(relation, positions)
    incomplete = geocoding_xdb.possible_worlds()
    from repro.db import algebra
    from repro.db.expressions import Column

    plan = algebra.Projection(
        algebra.RelationRef("ADDR"),
        ((Column("id"), "id"), (Column("address"), "address")),
    )
    result = incomplete.query(plan)
    assert set(truth) == set(result.certain_rows())
    # Projecting away the uncertain column makes all four addresses certain.
    assert len(truth) == 4


def test_projection_fnr_and_bag_error(geocoding_xdb):
    relation = geocoding_xdb.relation("ADDR")
    # Keeping the uncertain geocode column: no extra certain answers, FNR 0.
    assert projection_false_negative_rate(relation, [0, 1, 2]) == 0.0
    # Dropping it: addresses 2 and 3 become certain but stay labeled uncertain.
    assert projection_false_negative_rate(relation, [0, 1]) == pytest.approx(0.5)
    assert bag_projection_error_rate(relation, [0, 1]) == pytest.approx(0.5)
    labeled, best_guess = uadb_labeled_projection(relation, [0, 1])
    assert sum(best_guess.values()) == 4
    assert sum(labeled.values()) == 2


# -- PDBench harness ---------------------------------------------------------------------------


def test_pdbench_measure_query_systems_agree_on_shape():
    instance = default_instance(uncertainty=0.05, scale_factor=0.02)
    conn = build_connection(instance)
    measurement = measure_query(instance, "Q2", conn)
    assert set(measurement.systems) == {"Det", "UA-DB", "Libkin", "MayBMS", "MCDB"}
    # UA-DB returns exactly the deterministic (best-guess) answer set.
    assert measurement.result_size("UA-DB") == measurement.result_size("Det")
    # MayBMS returns at least as many rows (all possible answers).
    assert measurement.result_size("MayBMS") >= measurement.result_size("Det")
    # Libkin returns at most the UA-DB certain answers' count of null-free rows.
    assert measurement.result_size("Libkin") <= measurement.result_size("MayBMS")
    assert 0.0 <= measurement.certain_fraction() <= 1.0


# -- figure harnesses (smoke runs with tiny parameters) -------------------------------------------


def test_fig10_runs_and_reports_slowdown():
    table = fig10.run(complexities=(1, 2), num_tuples=6, queries_per_complexity=1, show=False)
    assert len(table.rows) == 2
    assert all(row[1] >= 0 and row[2] >= 0 for row in table.rows)


def test_fig11_and_fig12_and_fig13_shapes():
    runtime = fig11.run(uncertainties=(0.05,), queries=("Q2",), scale_factor=0.02, show=False)
    assert len(runtime.rows) == 1
    sizes = fig12.run(uncertainties=(0.05,), queries=("Q2",), scale_factor=0.02, show=False)
    ua_size, maybms_size = sizes.rows[0][2], sizes.rows[0][3]
    assert maybms_size >= ua_size
    certain = fig13.run(uncertainties=(0.05,), queries=("Q2",), scale_factor=0.02, show=False)
    assert 0 <= certain.rows[0][4] <= 100


def test_fig14_scaling_rows():
    table = fig14.run(scale_factors=(0.01, 0.02), queries=("Q2",), show=False)
    assert len(table.rows) == 2


def test_fig15_and_fig16_datasets():
    fnr = fig15.run(datasets=("shootings_buffalo",), projections_per_width=2,
                    scale=0.02, show=False)
    assert all(0.0 <= row[2] <= row[6] <= 1.0 for row in fnr.rows)
    stats = fig16.run(datasets=("shootings_buffalo",), scale=0.02, show=False)
    assert stats.rows[0][0] == "shootings_buffalo"


def test_fig17_real_queries_error_rates_low():
    table = fig17.run(queries=("Q3", "Q4"), num_crimes=80, num_graffiti=60,
                      num_inspections=60, repetitions=1, show=False)
    for row in table.rows:
        error = row[-1]
        assert 0.0 <= error <= 0.2


def test_fig18_utility_shape():
    table = fig18.run(uncertainties=(0.0, 0.3), num_rows=120, show=False)
    first, last = table.rows[0], table.rows[-1]
    # With no uncertainty everything is perfect.
    assert first[1] == pytest.approx(1.0) and first[2] == pytest.approx(1.0)
    # Libkin keeps perfect precision but loses recall as uncertainty grows.
    assert last[5] == pytest.approx(1.0)
    assert last[6] < first[6] + 1e-9
    # BGQP recall stays at or above Libkin recall.
    assert last[2] >= last[6]


def test_fig19_probabilistic_shape():
    table = fig19.run(block_sizes=(2,), queries=("QP1", "QP2"), num_blocks=25, show=False)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row[3] <= 0.5  # UA-DB error rate stays small
        assert row[4] >= 0.0


def test_fig20_and_fig21_error_rates_bounded():
    bag = fig20.run(datasets=("shootings_buffalo",), projections_per_width=2,
                    scale=0.02, show=False)
    assert all(0.0 <= row[2] <= 1.0 for row in bag.rows)
    access = fig21.run(datasets=("shootings_buffalo",), error_rates=(0.05,),
                       projection_widths=(1, 3), projections_per_width=2,
                       scale=0.02, show=False)
    assert all(0.0 <= row[2] <= 1.0 for row in access.rows)
