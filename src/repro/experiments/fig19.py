"""Figure 19: probabilistic databases -- UA-DB versus MayBMS on a BI-DB.

For block sizes (alternatives per block) 2, 5, 10 and 20 and the three
probability queries QP1-QP3, the harness measures

* UA-DB runtime and its labeling error against the exact certain answers,
* MayBMS runtime with exact confidence computation and with the sampling
  approximation (error bound 0.3), plus the classification error of treating
  ``conf >= 1`` as certain.

UA-DB query time is independent of the number of alternatives per block
(only one alternative is used), while MayBMS's cost grows with it --
dramatically so for the self-join query QP3.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from repro.baselines.maybms import MayBMSDatabase
from repro.api.session import connect
from repro.db.sql import parse_query
from repro.experiments.runner import ExperimentTable
from repro.metrics.classification import classification_report
from repro.semirings import NATURAL
from repro.workloads.bidb import generate_bidb, qp_query


def run(block_sizes: Sequence[int] = (2, 5, 10, 20),
        queries: Sequence[str] = ("QP1", "QP2", "QP3"),
        num_blocks: int = 60, seed: int = 5, epsilon: float = 0.3,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 19 with laptop-scale defaults."""
    table = ExperimentTable(
        title="Figure 19: BI-DB -- UA-DB vs MayBMS (seconds; error rates)",
        columns=["query", "alternatives", "uadb_seconds", "uadb_error",
                 "maybms_exact_seconds", "maybms_approx_seconds", "maybms_error"],
    )
    for block_size in block_sizes:
        instance = generate_bidb(
            num_blocks=num_blocks, alternatives_per_block=block_size, seed=seed
        )
        conn = connect(NATURAL, "bidb", cache_size=0)
        conn.register_xdb(instance.xdb)
        maybms = MayBMSDatabase.from_xdb(instance.xdb)
        catalog = conn.catalog

        for name in queries:
            sql = qp_query(name, instance.probe_index)
            ua_result = conn.query(sql)

            plan = parse_query(sql, catalog)
            possible, maybms_query_time = maybms.query(plan)

            # Exact confidence for every possible answer (MayBMS conf()).
            started = time.perf_counter()
            exact_certain = maybms.certain_rows(possible, exact=True)
            maybms_exact_time = maybms_query_time + (time.perf_counter() - started)

            # Approximate confidence (epsilon-bounded sampling).
            started = time.perf_counter()
            maybms.certain_rows(possible, exact=False, epsilon=epsilon, threshold=0.999)
            maybms_approx_time = maybms_query_time + (time.perf_counter() - started)

            # Ground truth = exact certain answers; UA-DB error = FNR + FPR mix
            # (reported as the overall misclassification rate, as in the paper).
            report = classification_report(
                ua_result.certain_rows(), ua_result.uncertain_rows(), exact_certain
            )
            approx_certain = maybms.certain_rows(
                possible, exact=False, epsilon=epsilon, threshold=0.999
            )
            maybms_report = classification_report(
                approx_certain,
                [row for row in possible.possible_rows() if row not in approx_certain],
                exact_certain,
            )
            table.add_row(
                name, block_size, ua_result.elapsed, report.error_rate,
                maybms_exact_time, maybms_approx_time, maybms_report.error_rate,
            )
    if show:
        table.show()
    return table
