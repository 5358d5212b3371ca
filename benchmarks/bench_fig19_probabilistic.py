"""Figure 19 benchmark: UA-DB versus MayBMS on BI-DBs with growing block sizes."""

from __future__ import annotations

import pytest

import repro
from repro.baselines.maybms import MayBMSDatabase
from repro.db.sql import parse_query
from repro.experiments import fig19
from repro.semirings import NATURAL
from repro.workloads.bidb import qp_query

BLOCK_SIZES = (2, 5, 10, 20)


@pytest.fixture(scope="module")
def bidb_frontends(bidb_instances):
    frontends = {}
    for size, instance in bidb_instances.items():
        # cache_size=0: the timed query() keeps paying parse/rewrite/optimize.
        conn = repro.connect(NATURAL, f"bidb{size}", cache_size=0)
        conn.register_xdb(instance.xdb)
        frontends[size] = conn
    return frontends


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_fig19_uadb_qp2(benchmark, bidb_frontends, bidb_instances, size):
    frontend = bidb_frontends[size]
    sql = qp_query("QP2", bidb_instances[size].probe_index)
    benchmark(lambda: frontend.query(sql))


@pytest.mark.parametrize("size", (2, 5, 10))
def test_fig19_maybms_qp2_with_confidence(benchmark, bidb_instances, size):
    instance = bidb_instances[size]
    maybms = MayBMSDatabase.from_xdb(instance.xdb)
    sql = qp_query("QP2", instance.probe_index)

    def run():
        plan = parse_query(sql)
        result, _ = maybms.query(plan)
        return maybms.certain_rows(result, exact=True)

    benchmark.pedantic(run, rounds=2, iterations=1)


@pytest.mark.parametrize("size", (2, 5))
def test_fig19_maybms_qp3_self_join(benchmark, bidb_instances, size):
    instance = bidb_instances[size]
    maybms = MayBMSDatabase.from_xdb(instance.xdb)
    sql = qp_query("QP3", instance.probe_index)

    def run():
        plan = parse_query(sql)
        result, _ = maybms.query(plan)
        return maybms.certain_rows(result, exact=True)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_fig19_regenerate_table(benchmark):
    table = benchmark.pedantic(
        lambda: fig19.run(block_sizes=(2, 5, 10), queries=("QP1", "QP2", "QP3"),
                          num_blocks=50, show=True),
        rounds=1, iterations=1,
    )
    assert len(table.rows) == 9
    # UA-DB runtime does not grow with the number of alternatives per block.
    uadb_times = {}
    for row in table.rows:
        uadb_times.setdefault(row[0], []).append((row[1], row[2]))
    for series in uadb_times.values():
        series.sort()
        smallest, largest = series[0][1], series[-1][1]
        assert largest <= smallest * 25 + 0.05
