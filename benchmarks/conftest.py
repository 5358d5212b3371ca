"""Shared fixtures for the benchmark suite.

Every benchmark regenerates (a slice of) one table or figure of the paper's
evaluation.  Fixtures are session-scoped so data generation is paid once per
run, keeping ``pytest benchmarks/ --benchmark-only`` laptop-friendly.
"""

from __future__ import annotations

import os

import pytest

from repro.db.engine import ENGINE_ENV_VAR, available_engines
from repro.experiments.pdbench_harness import build_connection
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.real_queries import generate_city_database
from repro.workloads.bidb import generate_bidb


@pytest.fixture(scope="session")
def engine_name():
    """Execution engine the benchmark suite runs on.

    Select with ``REPRO_ENGINE=columnar pytest benchmarks/`` (any name from
    :func:`repro.db.engine.available_engines`); default is the row engine, so
    historical numbers stay comparable.
    """
    name = os.environ.get(ENGINE_ENV_VAR)
    if name and name.lower() not in available_engines():
        raise pytest.UsageError(
            f"unknown {ENGINE_ENV_VAR}={name!r}; available: {available_engines()}"
        )
    return name


@pytest.fixture(scope="session")
def pdbench_low_uncertainty():
    """PDBench instance at 2% uncertainty (the Figure 11/14 default)."""
    return generate_pdbench(scale_factor=0.05, uncertainty=0.02, seed=7)


@pytest.fixture(scope="session")
def pdbench_high_uncertainty():
    """PDBench instance at 30% uncertainty (the stress level of Figure 11)."""
    return generate_pdbench(scale_factor=0.05, uncertainty=0.30, seed=7)


@pytest.fixture(scope="session")
def pdbench_frontends(pdbench_low_uncertainty, pdbench_high_uncertainty, engine_name):
    """UA-DB front-ends registered for both uncertainty levels."""
    return {
        0.02: build_connection(pdbench_low_uncertainty, engine=engine_name),
        0.30: build_connection(pdbench_high_uncertainty, engine=engine_name),
    }


@pytest.fixture(scope="session")
def city_instance():
    """The crime/graffiti/food-inspection data for the Figure 17 queries."""
    return generate_city_database(
        num_crimes=300, num_graffiti=120, num_inspections=150,
        uncertainty=0.08, seed=3,
    )


@pytest.fixture(scope="session")
def bidb_instances():
    """BI-DB instances with 2, 5, 10 and 20 alternatives per block (Figure 19)."""
    return {
        size: generate_bidb(num_blocks=60, alternatives_per_block=size, seed=5)
        for size in (2, 5, 10, 20)
    }
