"""Shared harness for the PDBench experiments (Figures 11-14).

For one generated PDBench instance and one query, the harness runs the five
systems compared in the paper and records runtime, result size and the
fraction of certain answers:

* **Det** -- deterministic best-guess query processing,
* **UA-DB** -- the rewritten query over the encoded UA-database,
* **Libkin** -- the null-based certain-answer under-approximation,
* **MayBMS** -- possible answers over the U-relation encoding,
* **MCDB** -- 10-sample tuple-bundle evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.bgqp import best_guess_query
from repro.baselines.libkin import libkin_certain_answers
from repro.baselines.maybms import MayBMSDatabase
from repro.baselines.mcdb import MCDBSampler
from repro.api.session import Connection, connect
from repro.db.sql import parse_query
from repro.semirings import NATURAL
from repro.workloads.pdbench import PDBenchInstance, generate_pdbench
from repro.workloads.tpch_queries import pdbench_query


@dataclass
class SystemMeasurement:
    """Runtime and result statistics of one system on one query."""

    runtime: float
    result_size: int
    certain_size: Optional[int] = None


@dataclass
class PDBenchMeasurement:
    """Measurements of all systems for one (instance, query) pair."""

    query: str
    systems: Dict[str, SystemMeasurement]

    def runtime(self, system: str) -> float:
        """Runtime of one system in seconds."""
        return self.systems[system].runtime

    def result_size(self, system: str) -> int:
        """Number of result rows returned by one system."""
        return self.systems[system].result_size

    def certain_fraction(self) -> float:
        """Fraction of UA-DB answers labeled certain (Figure 13)."""
        measurement = self.systems["UA-DB"]
        if measurement.result_size == 0:
            return 0.0
        return (measurement.certain_size or 0) / measurement.result_size


def build_connection(instance: PDBenchInstance,
                     engine: Optional[object] = None) -> Connection:
    """Register the PDBench x-DB with its designated best-guess world.

    ``engine`` selects the execution engine for every query the connection
    runs (None = the process default), so the figure benchmarks can compare
    backends on identical instances.  The plan cache is off: the experiments
    time ``query()`` against the uncached deterministic baseline, so every
    call must keep paying the parse/rewrite/optimize cost.
    """
    conn = connect(NATURAL, "pdbench", engine=engine, cache_size=0)
    conn.register_xdb(instance.xdb, world=instance.best_guess)
    return conn


def measure_query(instance: PDBenchInstance, query_name: str,
                  conn: Optional[Connection] = None,
                  mcdb_samples: int = 10,
                  include_maybms: bool = True,
                  include_mcdb: bool = True) -> PDBenchMeasurement:
    """Run one PDBench query on every system and collect measurements."""
    sql = pdbench_query(query_name)
    systems: Dict[str, SystemMeasurement] = {}

    det_result, det_time = best_guess_query(instance.best_guess, sql)
    systems["Det"] = SystemMeasurement(det_time, len(det_result))

    conn = conn or build_connection(instance)
    ua_result = conn.query(sql)
    systems["UA-DB"] = SystemMeasurement(
        ua_result.elapsed, len(ua_result.relation), len(ua_result.certain_rows())
    )

    libkin_rows, libkin_time = libkin_certain_answers(instance.null_database, sql)
    systems["Libkin"] = SystemMeasurement(libkin_time, len(libkin_rows))

    if include_maybms:
        maybms = MayBMSDatabase.from_xdb(instance.xdb)
        plan = parse_query(sql, instance.best_guess.schema)
        maybms_result, maybms_time = maybms.query(plan)
        systems["MayBMS"] = SystemMeasurement(
            maybms_time, len(maybms_result.possible_rows())
        )

    if include_mcdb:
        sampler = MCDBSampler(num_samples=mcdb_samples)
        worlds = sampler.sample_worlds_xdb(instance.xdb)
        results, mcdb_time = sampler.query(worlds, sql)
        systems["MCDB"] = SystemMeasurement(
            mcdb_time, len(sampler.possible_row_estimate(results))
        )

    return PDBenchMeasurement(query=query_name, systems=systems)


def default_instance(uncertainty: float = 0.02, scale_factor: float = 0.05,
                     seed: int = 7) -> PDBenchInstance:
    """A laptop-scale PDBench instance with the paper's default uncertainty."""
    return generate_pdbench(
        scale_factor=scale_factor, uncertainty=uncertainty, seed=seed
    )
