"""Figure 11: PDBench query runtime as the amount of uncertainty varies.

For every uncertainty level (2%, 5%, 10%, 30%) and every PDBench query
(Q1-Q3), the harness reports the runtime of Det, UA-DB, Libkin, MayBMS and
MCDB.  The expected shape: UA-DB and Libkin stay close to Det; MCDB is about
``num_samples`` times slower; MayBMS degrades sharply as uncertainty grows.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.pdbench_harness import build_connection, measure_query
from repro.experiments.runner import ExperimentTable
from repro.workloads.pdbench import generate_pdbench

SYSTEMS = ("Det", "UA-DB", "Libkin", "MayBMS", "MCDB")


def run(uncertainties: Sequence[float] = (0.02, 0.05, 0.10, 0.30),
        queries: Sequence[str] = ("Q1", "Q2", "Q3"),
        scale_factor: float = 0.05, seed: int = 7,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 11 (a-c) with laptop-scale defaults."""
    table = ExperimentTable(
        title="Figure 11: PDBench runtime (seconds) vs amount of uncertainty",
        columns=["query", "uncertainty"] + list(SYSTEMS),
    )
    for uncertainty in uncertainties:
        instance = generate_pdbench(
            scale_factor=scale_factor, uncertainty=uncertainty, seed=seed
        )
        conn = build_connection(instance)
        for query in queries:
            measurement = measure_query(instance, query, conn)
            table.add_row(
                query, uncertainty,
                *(measurement.runtime(system) if system in measurement.systems else None
                  for system in SYSTEMS),
            )
    if show:
        table.show()
    return table
