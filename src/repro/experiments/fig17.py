"""Figure 17: overhead and error rate of the five real-world queries (Q1-Q5).

For each query the harness measures

* **overhead** -- UA-DB runtime relative to deterministic best-guess
  processing of the same query (the paper reports <4%; a pure-Python engine
  has higher constant factors, but the overhead stays small and the join
  query Q5 remains the most expensive),
* **error rate** -- the false-negative rate of the UA-DB labeling against the
  exact certain answers, computed with the MayBMS baseline's exact
  confidence (a tuple is certain iff its marginal probability is 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.baselines.maybms import MayBMSDatabase
from repro.api.session import connect
from repro.db.sql import parse_query
from repro.experiments.runner import ExperimentTable
from repro.metrics.classification import false_negative_rate
from repro.semirings import NATURAL
from repro.workloads.real_queries import REAL_QUERIES, generate_city_database


def run(queries: Optional[Sequence[str]] = None, num_crimes: int = 400,
        num_graffiti: int = 150, num_inspections: int = 200,
        uncertainty: float = 0.08, seed: int = 3, repetitions: int = 3,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 17 with laptop-scale defaults."""
    queries = list(queries) if queries is not None else list(REAL_QUERIES)
    instance = generate_city_database(
        num_crimes=num_crimes, num_graffiti=num_graffiti,
        num_inspections=num_inspections, uncertainty=uncertainty, seed=seed,
    )
    conn = connect(NATURAL, "city", cache_size=0)
    conn.register_xdb(instance.xdb)
    maybms = MayBMSDatabase.from_xdb(instance.xdb)

    table = ExperimentTable(
        title="Figure 17: real queries -- overhead vs Det and error (FNR) of UA-DB labels",
        columns=["query", "det_seconds", "uadb_seconds", "overhead_pct",
                 "answers", "certain", "error_rate"],
    )
    for name in queries:
        sql = REAL_QUERIES[name]
        det_time = 0.0
        ua_time = 0.0
        ua_result = None
        for _ in range(repetitions):
            _, elapsed = conn.query_deterministic(sql)
            det_time += elapsed
            ua_result = conn.query(sql)
            ua_time += ua_result.elapsed
        det_time /= repetitions
        ua_time /= repetitions
        overhead = 100.0 * (ua_time - det_time) / det_time if det_time > 0 else 0.0

        # Ground-truth certain answers via exact confidence over the U-relations.
        plan = parse_query(sql, conn.catalog)
        possible, _ = maybms.query(plan)
        truth_certain = maybms.certain_rows(possible, exact=True)
        labeled_certain = ua_result.certain_rows()
        error = false_negative_rate(labeled_certain, ua_result.rows(), truth_certain)
        table.add_row(
            name, det_time, ua_time, overhead,
            len(ua_result.relation), len(labeled_certain), error,
        )
    if show:
        table.show()
    return table
