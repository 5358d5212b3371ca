"""Figure 17 benchmark: the five real-world queries (overhead and error rate)."""

from __future__ import annotations

import pytest

import repro
from repro.experiments import fig17
from repro.semirings import NATURAL
from repro.workloads.real_queries import REAL_QUERIES


@pytest.fixture(scope="module")
def city_frontend(city_instance):
    # cache_size=0: the timed query() keeps paying parse/rewrite/optimize.
    conn = repro.connect(NATURAL, "city", cache_size=0)
    conn.register_xdb(city_instance.xdb)
    return conn


@pytest.mark.parametrize("query", sorted(REAL_QUERIES))
def test_fig17_uadb_query(benchmark, city_frontend, query):
    sql = REAL_QUERIES[query]
    benchmark(lambda: city_frontend.query(sql))


@pytest.mark.parametrize("query", sorted(REAL_QUERIES))
def test_fig17_deterministic_query(benchmark, city_frontend, query):
    sql = REAL_QUERIES[query]
    benchmark(lambda: city_frontend.query_deterministic(sql))


def test_fig17_regenerate_table(benchmark):
    table = benchmark.pedantic(
        lambda: fig17.run(num_crimes=300, num_graffiti=120, num_inspections=150,
                          repetitions=2, show=True),
        rounds=1, iterations=1,
    )
    assert len(table.rows) == 5
    for row in table.rows:
        error_rate = row[-1]
        assert error_rate <= 0.2  # the paper reports <= 1%; allow simulator slack
