"""Figure 14 benchmark: runtime versus dataset size at 2% uncertainty."""

from __future__ import annotations

import pytest

from repro.experiments import fig14
from repro.experiments.pdbench_harness import build_connection
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.tpch_queries import pdbench_query

SCALES = (0.025, 0.1, 0.4)


@pytest.fixture(scope="module")
def scaled_frontends():
    frontends = {}
    for scale in SCALES:
        instance = generate_pdbench(scale_factor=scale, uncertainty=0.02, seed=7)
        frontends[scale] = (instance, build_connection(instance))
    return frontends


@pytest.mark.parametrize("scale", SCALES)
def test_fig14_uadb_query_q1_scaling(benchmark, scaled_frontends, scale):
    _, frontend = scaled_frontends[scale]
    benchmark(lambda: frontend.query(pdbench_query("Q1")))


@pytest.mark.parametrize("scale", SCALES)
def test_fig14_uadb_query_q3_scaling(benchmark, scaled_frontends, scale):
    _, frontend = scaled_frontends[scale]
    benchmark(lambda: frontend.query(pdbench_query("Q3")))


def test_fig14_regenerate_table(benchmark):
    table = benchmark.pedantic(
        lambda: fig14.run(scale_factors=SCALES, queries=("Q1", "Q2", "Q3"), show=True),
        rounds=1, iterations=1,
    )
    assert len(table.rows) == 9
    # UA-DB runtime stays within a small factor of deterministic processing.
    for row in table.rows:
        det, uadb = row[2], row[3]
        assert uadb <= det * 20 + 0.05
