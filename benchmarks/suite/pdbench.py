"""Workloads ``pdbench_ua`` and ``pdbench_au``: the paper's Figure 14 queries.

Both run PDBench Q1-Q3 round-robin on one thread through a warm
:class:`repro.Connection` on the sqlite engine and consume the labelled
rows, beside the same queries evaluated deterministically over the
pre-built best-guess :class:`Database` with a pre-parsed, pre-optimized
plan.  ``pdbench_ua`` uses tuple-level UA labels (``Connection.query``),
``pdbench_au`` attribute-level ranges (``Connection.query_bounds``), whose
range-overlap joins stress the same engine very differently.

``Connection.query_deterministic`` is never used for timing: it re-extracts
the best-guess world and re-parses on every call, so it measures neither
path fairly.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
from repro.api.session import AttributeQueryResult, UAQueryResult
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, decode_attribute_relation,
    encode_attribute_relation,
)
from repro.core.attribute_rewriter import rewrite_attribute_plan
from repro.core.encoding import decode_relation
from repro.core.rewriter import rewrite_plan
from repro.db.database import Database
from repro.db.engine import available_engines
from repro.db.evaluator import evaluate
from repro.db.optimizer import optimize_plan
from repro.db.sql.parser import parse_statement
from repro.db.sql.translator import translate
from repro.db.stats import StatsCatalog
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.tpch_queries import pdbench_query

from .harness import (
    Part, Report, Timer, Tracer, digest_of, geomean, in_parts, median,
    self_peak_rss_mb,
)

QUERIES = ("Q1", "Q2", "Q3")
ENGINE = "sqlite"
UNCERTAINTY = 0.02
#: The timed instance is the one ``experiments/fig14.py`` generates.  At
#: these scales a handful of uncertain rows decide what the range joins
#: cost (Q3 of pdbench_au moves 4x between seeds), so a timed instance drawn
#: from ``--seed`` would measure the draw.  ``--seed`` orders the queries
#: and draws the instances the answers are checked on.
DATA_SEED = 7
#: The Figure 14 point every engine is mapped at (the ROADMAP item-4 win map).
MAP_SCALE = 0.4
#: Scale of the instance the sqlite answers are checked on against ``row``.
VERIFY_SCALE = 0.1
#: ``plan_cache.clear()`` + ``query()`` samples per query.
COLD_SAMPLES = 30
#: Seconds one engine may spend on one query of the win map.
MAP_BUDGET = 0.5


class _Instance:
    """One generated PDBench database behind a connection, plus its baseline."""

    def __init__(self, scale: float, seed: int, engine: str, mode: str) -> None:
        instance = generate_pdbench(scale_factor=scale,
                                    uncertainty=UNCERTAINTY, seed=seed)
        self.mode = mode
        self.engine = engine
        self.connection = repro.connect(engine=engine, name="pdbench")
        self.connection.register_xdb(instance.xdb, world=instance.best_guess)
        self.best_guess: Database = instance.best_guess
        # The baseline gets what the connection gets: statistics for join
        # reordering, one parse, one optimize, the same engine.
        stats = StatsCatalog()
        stats.refresh(self.best_guess)
        self.sql = {q: pdbench_query(q) for q in QUERIES}
        self.deterministic_plans = {
            q: optimize_plan(
                translate(parse_statement(sql), self.best_guess.schema),
                self.best_guess.schema, stats=stats)
            for q, sql in self.sql.items()}
        self._run: Callable[[str], Any] = (
            self.connection.query if mode == "ua"
            else self.connection.query_bounds)

    def annotated(self, query: str) -> List[Tuple[Any, Any]]:
        """One answered query as a user sees it: rows with their labels."""
        return self._run(self.sql[query]).labeled_rows()

    def result(self, query: str):
        return self._run(self.sql[query])

    def deterministic(self, query: str) -> List[Tuple]:
        return evaluate(self.deterministic_plans[query], self.best_guess,
                        engine=self.engine, optimize=False).to_rows()

    def close(self) -> None:
        self.connection.close()


class PDBench:
    """Driver-facing workload object; ``mode`` is ``"ua"`` or ``"au"``."""

    def __init__(self, mode: str, seed: int, smoke: bool, workdir) -> None:
        self.mode = mode
        self.name = f"pdbench_{mode}"
        self.seed = seed
        self.smoke = smoke
        # pdbench_au is held where one Q1-Q3 cycle stays under ~0.1 s: the
        # range joins grow quadratically (Q3: 65 ms at 0.4, 1.7 s at 1).
        self.map_scale = 0.1 if smoke else MAP_SCALE
        self.scale = 4.0 if mode == "ua" and not smoke else self.map_scale
        self.cold_samples = 2 if smoke else COLD_SAMPLES
        self.instance: Optional[_Instance] = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Generate, register, and answer every query once (verified)."""
        self.instance = _Instance(self.scale, DATA_SEED, ENGINE, self.mode)
        self.expected = {}
        for query in QUERIES:
            rows = [row for row, _ in self.instance.annotated(query)]
            baseline = sorted(self.instance.deterministic(query))
            if rows != baseline:
                raise AssertionError(
                    f"{self.name} {query}: best-guess rows differ from the "
                    f"deterministic answer ({len(rows)} vs {len(baseline)})")
            self.expected[query] = len(rows)

    def teardown(self) -> None:
        if self.instance is not None:
            self.instance.close()
            self.instance = None

    # -- untraced window ------------------------------------------------------

    def _part(self, seconds: float, rng: random.Random,
              base_ms: Dict[str, List[float]]) -> Part:
        """Q1-Q3 in random order until ``seconds`` are up, each followed by
        its deterministic twin: annotated and deterministic calls alternate,
        so both sides of the overhead ratio see the same machine conditions.
        """
        instance = self.instance
        annotated: Dict[str, List[float]] = {q: [] for q in QUERIES}
        baseline: Dict[str, List[float]] = {q: [] for q in QUERIES}
        part = Part()
        order = list(QUERIES)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not part.latencies:
            rng.shuffle(order)
            for query in order:
                started = time.perf_counter()
                rows = instance.annotated(query)
                middle = time.perf_counter()
                plain = instance.deterministic(query)
                ended = time.perf_counter()
                annotated[query].append(middle - started)
                baseline[query].append(ended - middle)
                part.latencies.append(middle - started)
                if (len(rows) != self.expected[query]
                        or len(plain) != self.expected[query]):
                    part.failed += 1
        part.wall = sum(part.latencies)
        part.ratio = geomean([median(annotated[q]) / median(baseline[q])
                              for q in QUERIES])
        for query in QUERIES:
            base_ms[query].append(median(baseline[query]) * 1e3)
        return part

    def measure(self, seconds: float, report: Report) -> None:
        rng = random.Random(self.seed)
        base_ms: Dict[str, List[float]] = {q: [] for q in QUERIES}
        report.window(in_parts(
            seconds * 0.8, lambda part: self._part(part, rng, base_ms)))
        report.notes["overhead_x_base"] = (
            "median deterministic best-guess latency, same engine, "
            "pre-parsed plan; geometric mean over Q1-Q3 of the ratios")
        report.notes["overhead_x_base_ms"] = {
            q: median(base_ms[q]) for q in QUERIES}
        report.notes["scale"] = self.scale

        cold = self._cold_samples()
        report.put("cold_query_ms",
                   sum(median(cold[q]) for q in QUERIES) / len(QUERIES) * 1e3,
                   "ms")
        report.notes["cold_samples_per_query"] = self.cold_samples
        report.put("peak_rss_mb", self_peak_rss_mb(), "MB")
        self._verify(report)

    def _cold_samples(self) -> Dict[str, List[float]]:
        """``query()`` right after ``plan_cache.clear()``: the one-shot cost."""
        instance = self.instance
        cold: Dict[str, List[float]] = {q: [] for q in QUERIES}
        for _ in range(self.cold_samples):
            for query in QUERIES:
                instance.connection.plan_cache.clear()
                with Timer() as timer:
                    instance.result(query)
                cold[query].append(timer.seconds)
        return cold

    # -- answer checks ----------------------------------------------------------

    def _verify(self, report: Report) -> None:
        instance = self.instance
        answers = {}
        for query in QUERIES:
            labelled = instance.annotated(query)
            answers[query] = labelled
            report.check(
                f"{query} best-guess rows equal deterministic rows",
                [row for row, _ in labelled]
                == sorted(instance.deterministic(query)))
            if self.mode == "au":
                bad = sum(
                    1 for ranges, (low, best, high)
                    in instance.result(query).bounded_rows()
                    if not low <= best <= high or any(
                        lower is not None and upper is not None
                        and not lower <= value <= upper
                        for lower, value, upper in ranges))
                report.check(f"{query} cells satisfy lb <= best <= ub",
                             bad == 0, f"{bad} fragments out of range")
        report.notes["digest"] = digest_of(answers)
        # sqlite against the readable reference engine, at a scale the row
        # engine answers quickly.
        fast = _Instance(VERIFY_SCALE, self.seed, ENGINE, self.mode)
        reference = _Instance(VERIFY_SCALE, self.seed, "row", self.mode)
        for query in QUERIES:
            report.check(f"{query} sqlite equals row at scale {VERIFY_SCALE}",
                         fast.annotated(query) == reference.annotated(query))
        fast.close()
        reference.close()

    # -- traced run -------------------------------------------------------------

    def trace(self, seconds: float, report: Report, tracer: Tracer) -> None:
        instance = self.instance
        connection = instance.connection
        # Untraced reference for trace.overhead_ratio.
        plain: Dict[str, List[float]] = {q: [] for q in QUERIES}
        deadline = time.perf_counter() + seconds * 0.15
        while time.perf_counter() < deadline or not plain[QUERIES[-1]]:
            for query in QUERIES:
                with Timer() as timer:
                    instance.annotated(query)
                plain[query].append(timer.seconds)

        database, stages = self._cold_stages(tracer, 3 if self.smoke else 15)
        first_execute = []
        for plan, _ in stages.values():
            with Timer() as timer:
                evaluate(plan, database, engine=ENGINE, optimize=False)
            first_execute.append(timer.seconds)

        decode_name = ("core.encoding.decode" if self.mode == "ua"
                       else "core.attribute_bounds.decode")
        execute_name = f"db.engine.{ENGINE}.execute"
        traced: Dict[str, List[float]] = {q: [] for q in QUERIES}
        rows_labelled = 0
        certain = 0
        identifier = 0
        deadline = time.perf_counter() + seconds * 0.4
        while time.perf_counter() < deadline or identifier < len(QUERIES):
            for query in QUERIES:
                identifier += 1
                plan, decode = stages[query]

                def staged() -> Any:
                    with tracer.span("staged", query=identifier):
                        with tracer.span(f"{execute_name}.{query}"):
                            encoded = evaluate(plan, database, engine=ENGINE,
                                               optimize=False)
                        with tracer.span(decode_name):
                            result = decode(encoded)
                        with tracer.span("api.session.label"):
                            return result.labeled_rows()

                # Whichever of the two runs second finds the query's pages
                # warm; they take turns going first.
                if identifier % 2:
                    staged_rows = staged()
                with tracer.span("annotated", query=identifier) as whole:
                    with tracer.span(f"api.session.warm_query.{query}"):
                        answer = instance.result(query)
                    with tracer.span("api.session.label"):
                        rows = answer.labeled_rows()
                if not identifier % 2:
                    staged_rows = staged()
                traced[query].append(whole.seconds)
                with tracer.span("api.session.plan_cache_probe"):
                    connection.prepare(
                        instance.sql[query],
                        mode="rewritten" if self.mode == "ua" else "attribute")
                report.check(f"{query} staged pipeline equals query()",
                             staged_rows == rows)
                rows_labelled += len(rows)
                certain += self._certain(rows)

        self_time = {name: median(values)
                     for name, values in tracer.self_seconds().items()}
        for stage_name, metric in (
                ("db.sql.parse", "db.sql.parse_us"),
                ("db.sql.translate", "db.sql.translate_us"),
                ("db.optimizer.optimize", "db.optimizer.optimize_us"),
                ("core.rewriter.rewrite", "core.rewriter.rewrite_us"),
                ("core.attribute_rewriter.rewrite",
                 "core.attribute_rewriter.rewrite_us"),
                ("api.session.plan_cache_probe",
                 "api.session.plan_cache_probe_us")):
            if stage_name in self_time:
                report.put(metric, self_time[stage_name] * 1e6, "us")
        staged_sum = 0.0
        warm_sum = 0.0
        for query in QUERIES:
            execute = self_time[f"{execute_name}.{query}"]
            warm = self_time[f"api.session.warm_query.{query}"]
            report.put(f"{execute_name}_ms.{query}", execute * 1e3, "ms")
            report.put(f"api.session.warm_query_ms.{query}", warm * 1e3, "ms")
            staged_sum += execute
            warm_sum += warm
        report.put(f"db.engine.{ENGINE}.first_execute_ms",
                   median(first_execute) * 1e3, "ms")
        decode_seconds = self_time[decode_name]
        report.put(decode_name + "_ms", decode_seconds * 1e3, "ms")
        label_seconds = sum(tracer.durations("api.session.label"))
        report.put("api.session.label_ms",
                   self_time["api.session.label"] * 1e3, "ms")
        # Every answer is labelled twice above (staged and through query()).
        report.put("api.session.label_rows_per_s",
                   2 * rows_labelled / label_seconds, "1/s")
        report.put("api.session.certain_fraction",
                   certain / rows_labelled if rows_labelled else 0.0, "ratio")
        # query() = plan-cache probe + execute + decode (+ its own glue).
        staged_sum += len(QUERIES) * (
            decode_seconds + self_time["api.session.plan_cache_probe"])
        report.notes["stage_sum_over_warm_query"] = staged_sum / warm_sum
        report.put("trace.overhead_ratio",
                   geomean([median(traced[q]) / median(plain[q])
                            for q in QUERIES]), "x")
        report.count(identifier + sum(len(plain[q]) for q in QUERIES))
        self._engine_map(report)

    @staticmethod
    def _certain(rows: List[Tuple[Any, Any]]) -> int:
        return sum(1 for _, label in rows
                   if label is True or getattr(label, "certain", False))

    def _cold_stages(self, tracer: Tracer, repeats: int):
        """Walk parse -> translate -> rewrite -> optimize by public functions.

        Returns the database the staged plans run on and, per query, the
        plan and the decoder of its result, for the warm stage walk.
        """
        connection = self.instance.connection
        if self.mode == "ua":
            database = connection.encoded
            catalog = connection.catalog
        else:
            # What the session derives for attribute mode, built from the
            # same public pieces: every UA relation seen through the
            # degenerate range conversion.
            database = Database(connection.semiring, "pdbench_attr",
                                engine=ENGINE)
            for relation in connection.uadb:
                database.add_relation(encode_attribute_relation(
                    AttributeBoundsRelation.from_ua_relation(relation),
                    connection.semiring))
            database.stats = connection.stats
            catalog = connection.attribute_catalog
        stages: Dict[str, Tuple[Any, Callable]] = {}
        for query in QUERIES:
            sql = self.instance.sql[query]
            for _ in range(repeats):
                with tracer.span("cold_stages"):
                    with tracer.span("db.sql.parse"):
                        statement = parse_statement(sql)
                    with tracer.span("db.sql.translate"):
                        logical = translate(statement, catalog)
                    if self.mode == "ua":
                        with tracer.span("core.rewriter.rewrite"):
                            plan = rewrite_plan(logical, database.schema)
                        decode = _decode_ua(connection)
                    else:
                        with tracer.span("core.attribute_rewriter.rewrite"):
                            rewrite = rewrite_attribute_plan(logical,
                                                             database.schema)
                        plan = rewrite.plan
                        decode = _decode_au(rewrite.columns)
                    with tracer.span("db.optimizer.optimize"):
                        plan = optimize_plan(plan, database.schema,
                                             stats=connection.stats)
            stages[query] = (plan, decode)
        return database, stages

    def _engine_map(self, report: Report) -> None:
        """Annotated latency and overhead of every registered engine."""
        for engine in available_engines():
            instance = _Instance(self.map_scale, DATA_SEED, engine, self.mode)
            ratios = []
            for query in QUERIES:
                annotated = _budgeted(lambda: instance.annotated(query),
                                      0.01 if self.smoke else MAP_BUDGET)
                plain = _budgeted(lambda: instance.deterministic(query),
                                  0.01 if self.smoke else MAP_BUDGET / 5)
                report.put(f"db.engine.{engine}.map_ms.{query}",
                           annotated * 1e3, "ms")
                ratios.append(annotated / plain)
            report.put(f"db.engine.{engine}.overhead_x", geomean(ratios), "x")
            instance.close()
        report.notes["engine_map_scale"] = self.map_scale


def _decode_ua(connection) -> Callable[[Any], UAQueryResult]:
    semiring = connection.uadb.ua_semiring
    return lambda encoded: UAQueryResult(decode_relation(encoded, semiring))


def _decode_au(columns) -> Callable[[Any], AttributeQueryResult]:
    return lambda encoded: AttributeQueryResult(
        decode_attribute_relation(encoded, attributes=columns))


def _budgeted(call: Callable[[], Any], budget: float) -> float:
    """Median seconds of ``call`` over as many runs as fit in ``budget``.

    The first run warms the engine (table load, SQL compile) and is dropped
    whenever a second one fits; a query slower than the budget is sampled
    once, cold, rather than not at all.
    """
    deadline = time.perf_counter() + budget
    samples: List[float] = []
    while True:
        with Timer() as timer:
            call()
        samples.append(timer.seconds)
        if time.perf_counter() >= deadline or len(samples) >= 25:
            break
    return median(samples[1:] or samples)
