"""Figure 14: PDBench query runtime as the dataset size varies (2% uncertainty).

The paper uses scale factors 0.1, 1 and 10 (100 MB - 10 GB); the reproduction
uses three laptop-scale sizes with the same 100x spread available on demand
(the default spread is 16x to keep the harness fast).  The expected shape:
Det, UA-DB and Libkin scale together; MCDB tracks them at ~10x; MayBMS's
relative overhead grows with size.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.pdbench_harness import build_connection, measure_query
from repro.experiments.runner import ExperimentTable
from repro.workloads.pdbench import generate_pdbench

SYSTEMS = ("Det", "UA-DB", "Libkin", "MayBMS", "MCDB")


def run(scale_factors: Sequence[float] = (0.025, 0.1, 0.4),
        queries: Sequence[str] = ("Q1", "Q2", "Q3"),
        uncertainty: float = 0.02, seed: int = 7,
        show: bool = True) -> ExperimentTable:
    """Reproduce Figure 14 (a-c) with laptop-scale defaults."""
    table = ExperimentTable(
        title="Figure 14: PDBench runtime (seconds) vs dataset size (2% uncertainty)",
        columns=["query", "scale_factor"] + list(SYSTEMS),
    )
    for scale_factor in scale_factors:
        instance = generate_pdbench(
            scale_factor=scale_factor, uncertainty=uncertainty, seed=seed
        )
        conn = build_connection(instance)
        for query in queries:
            measurement = measure_query(instance, query, conn)
            table.add_row(
                query, scale_factor,
                *(measurement.runtime(system) if system in measurement.systems else None
                  for system in SYSTEMS),
            )
    if show:
        table.show()
    return table
