"""Figure 12: query result sizes (#rows), UA-DB versus MayBMS.

UA-DBs return exactly the rows of the best-guess world, so their result size
matches deterministic processing; MayBMS returns every possible answer, so
its result size grows rapidly with the amount of uncertainty.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.pdbench_harness import build_connection, measure_query
from repro.experiments.runner import ExperimentTable
from repro.workloads.pdbench import generate_pdbench


def run(uncertainties: Sequence[float] = (0.02, 0.05, 0.10, 0.30),
        queries: Sequence[str] = ("Q1", "Q2", "Q3"),
        scale_factor: float = 0.05, seed: int = 7,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 12 with laptop-scale defaults."""
    table = ExperimentTable(
        title="Figure 12: result sizes (#rows), UA-DB vs MayBMS",
        columns=["uncertainty", "query", "UA-DB", "MayBMS"],
    )
    for uncertainty in uncertainties:
        instance = generate_pdbench(
            scale_factor=scale_factor, uncertainty=uncertainty, seed=seed
        )
        conn = build_connection(instance)
        for query in queries:
            measurement = measure_query(
                instance, query, conn, include_mcdb=False
            )
            table.add_row(
                uncertainty, query,
                measurement.result_size("UA-DB"),
                measurement.result_size("MayBMS"),
            )
    if show:
        table.show()
    return table
