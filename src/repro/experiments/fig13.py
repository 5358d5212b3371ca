"""Figure 13: percentage of certain answers per query and uncertainty level.

Reports, for each PDBench query and input uncertainty level, the number of
UA-DB answers labeled certain and the fraction of all answers they represent.
More input uncertainty means fewer certain answers, and join-heavy queries
(Q1) lose certainty fastest.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.pdbench_harness import build_connection
from repro.experiments.runner import ExperimentTable
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.tpch_queries import pdbench_query


def run(uncertainties: Sequence[float] = (0.02, 0.05, 0.10, 0.30),
        queries: Sequence[str] = ("Q1", "Q2", "Q3"),
        scale_factor: float = 0.05, seed: int = 7,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 13 with laptop-scale defaults."""
    table = ExperimentTable(
        title="Figure 13: certain answers per query (count and % of all answers)",
        columns=["uncertainty", "query", "certain", "total", "certain_pct"],
    )
    for uncertainty in uncertainties:
        instance = generate_pdbench(
            scale_factor=scale_factor, uncertainty=uncertainty, seed=seed
        )
        conn = build_connection(instance)
        for query in queries:
            result = conn.query(pdbench_query(query))
            total = len(result.relation)
            certain = len(result.certain_rows())
            pct = 100.0 * certain / total if total else 0.0
            table.add_row(uncertainty, query, certain, total, pct)
    if show:
        table.show()
    return table
