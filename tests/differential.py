"""Randomized differential-testing harness across execution configurations.

The harness is the paper's Theorem 7 turned into a property test at system
scale: the same UA-database is registered into one session per execution
configuration --

* ``row``       -- the reference interpreter, in memory,
* ``columnar``  -- vectorized batches, in memory,
* ``sqlite``    -- plans compiled to SQL over an in-memory ``Enc`` store,
* ``sqlite-disk`` -- the same compiled SQL executed against a *persistent*
  on-disk ``.uadb`` store,

-- and a seeded generator produces random SQL statements (selections, joins,
aggregates, set ops, DISTINCT, ORDER BY/LIMIT, named parameters) that must
return identical rows, identical annotations **and** identical
certain/uncertain labels on every configuration.  Statements inside the
rewriting fragment additionally run through *both* query paths -- the
Figure 8/9 rewriting over the encoding and native K_UA evaluation -- so
every query is simultaneously an engine-equivalence and a Theorem 7 check;
aggregates (outside the rewriting fragment) run on the direct path only.

Determinism and debuggability are the point:

* every query derives from an explicit integer seed -- a failure is
  reproducible with ``python tests/differential.py --seed N``;
* on a mismatch the harness *shrinks* the failing query -- greedily dropping
  WHERE predicates, DISTINCT, ORDER BY/LIMIT and set-op arms while the
  disagreement persists -- and reports the minimal failing SQL;
* every seed's outcome is appended to the log file named by
  ``REPRO_DIFF_LOG`` (uploaded as a CI artifact on failure).

The attribute-level (AU-DB) harness -- ``run_attribute_seed`` /
``python tests/differential.py --attribute`` -- pins the range rewriting
with a strictly stronger oracle: **world enumeration**.  Sources are kept
small enough (narrow integer ranges, multiplicities ``m_ub <= 2``) that
every possible world of the uncertain database can be materialized; each
randomized query (selections, joins, unions, ``DISTINCT`` and -- the
expressiveness win over tuple-level UA, which rejects ``Aggregate``
outright -- grouping and scalar aggregation) then asserts, per engine:

* **containment**: in every possible world, the deterministic answer is
  coverable by the produced fragments -- a capacitated assignment matching
  each answer tuple to a fragment whose per-attribute ranges contain it,
  with each fragment's load inside ``[m_lb, m_ub]`` (a max-flow
  feasibility check with lower bounds);
* **best-guess exactness**: the fragments' best-guess bag equals the
  deterministic answer over the best-guess world;
* **invariants**: ``lower <= best <= upper`` on every attribute range and
  ``m_lb <= m_bg <= m_ub`` on every multiplicity triple;
* **engine agreement**: row, columnar and compiled SQLite (in memory and on
  disk) return identical fragments.

The deterministic per-world answers come from a tiny independent bag
evaluator built from the generator's own closures -- no SQL parsing, no
shared code with the engines under test.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core.attribute_bounds import (
    AttributeBoundsRelation, encode_attribute_relation,
)
from repro.db.database import Database
from repro.db.schema import Attribute, DataType, DatabaseSchema, RelationSchema
from repro.semirings import NATURAL
from repro.core.uadb import UADatabase, UARelation

__all__ = [
    "ATTRIBUTE_CONFIGS",
    "AttributeQuery",
    "AttributeSource",
    "CONFIGS",
    "Failure",
    "Query",
    "build_attribute_source",
    "build_source",
    "degenerate_reference",
    "enumerate_attribute_worlds",
    "open_attribute_sessions",
    "open_sessions",
    "public_attribute_database",
    "random_attribute_query",
    "random_query",
    "run_attribute_seed",
    "run_seed",
    "shrink",
]

#: The execution configurations every query must agree across.
CONFIGS: Tuple[str, ...] = ("row", "columnar", "sqlite", "sqlite-disk")

#: Random queries generated per seed (4 configurations each).
QUERIES_PER_SEED = 5

#: Environment variable naming the seed log (CI uploads it on failure).
DIFF_LOG_ENV_VAR = "REPRO_DIFF_LOG"


# ---------------------------------------------------------------------------
# Query specification (structured, so the shrinker can drop components).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A generated SQL statement, kept structured for shrinking.

    ``params`` uses named placeholders only, so dropping a parameterized
    predicate during shrinking leaves the (surplus-tolerant) bindings valid.
    """

    select: Tuple[str, ...]
    source: str
    where: Tuple[str, ...] = ()
    group_by: Tuple[str, ...] = ()
    order_by: Optional[str] = None
    limit: Optional[str] = None
    distinct: bool = False
    union: Optional["Query"] = None
    params: Optional[Dict[str, object]] = None
    #: Query paths to cross-check: ``"rewritten"`` (the Figure 8/9 pipeline
    #: over the encoding) and/or ``"direct"`` (native K_UA evaluation).
    #: Both where supported -- their agreement is exactly Theorem 7 --
    #: aggregates are outside the rewriting fragment and run direct only.
    modes: Tuple[str, ...] = ("rewritten", "direct")

    def to_sql(self) -> str:
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(", ".join(self.select))
        parts.append(f" FROM {self.source}")
        if self.where:
            parts.append(" WHERE " + " AND ".join(self.where))
        if self.group_by:
            parts.append(" GROUP BY " + ", ".join(self.group_by))
        if self.order_by:
            parts.append(f" ORDER BY {self.order_by}")
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        sql = "".join(parts)
        if self.union is not None:
            sql = f"{sql} UNION ALL {self.union.to_sql()}"
        return sql

    def __str__(self) -> str:
        sql = self.to_sql()
        return f"{sql!r} params={self.params!r}"


@dataclass
class Failure:
    """One differential disagreement, with its minimized reproduction."""

    seed: int
    index: int
    query: Query
    minimal: Query
    detail: str

    def __str__(self) -> str:
        return (
            f"seed={self.seed} query#{self.index}: {self.detail}\n"
            f"  original: {self.query}\n"
            f"  minimal:  {self.minimal}"
        )


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------


def build_source(rng: random.Random) -> UADatabase:
    """A random UA-database over ``r(a, b, v)`` and ``s(a, d)``.

    Tuples carry genuine UA pairs (``certain <= determinized`` bag
    multiplicities, certainty 0 included), so label agreement is tested, not
    just row agreement.  NULLs and duplicate rows are generated on purpose.
    """
    uadb = UADatabase(NATURAL, "diff")
    r = UARelation(RelationSchema("r", [
        Attribute("a", DataType.INTEGER),
        Attribute("b", DataType.STRING),
        Attribute("v", DataType.FLOAT),
    ]), uadb.ua_semiring)
    for _ in range(rng.randint(2, 25)):
        row = (
            rng.randint(0, 6),
            rng.choice(["x", "y", "z", "xyz", None]),
            rng.choice([None, 0.5, 1.5, 2.5, 10.0]),
        )
        determinized = rng.randint(1, 3)
        r.add_tuple(row, certain=rng.randint(0, determinized),
                    determinized=determinized)
    s = UARelation(RelationSchema("s", [
        Attribute("a", DataType.INTEGER),
        Attribute("d", DataType.INTEGER),
    ]), uadb.ua_semiring)
    for _ in range(rng.randint(2, 20)):
        determinized = rng.randint(1, 2)
        s.add_tuple((rng.randint(0, 6), rng.randint(0, 3)),
                    certain=rng.randint(0, determinized),
                    determinized=determinized)
    uadb.add_relation(r)
    uadb.add_relation(s)
    return uadb


def random_query(rng: random.Random) -> Query:
    """One random (always schema-valid) SQL statement over ``r`` and ``s``."""
    predicates = [
        f"a {rng.choice(['<', '<=', '=', '>=', '>'])} {rng.randint(0, 6)}",
        "b IN ({})".format(", ".join(
            repr(v) for v in rng.sample(["x", "y", "z", "xyz"], rng.randint(1, 3))
        )),
        "b IS NOT NULL",
        "v IS NULL",
        f"v BETWEEN {rng.choice([0.0, 0.5, 1.0])} AND {rng.choice([1.5, 2.5, 10.0])}",
        "b LIKE '%x%'",
        "a >= :lo",
    ]
    shape = rng.choice(
        ["single", "single", "join", "aggregate", "limit", "union", "param"]
    )
    if shape == "single":
        return Query(
            select=tuple(rng.choice([
                ("a", "b", "v"), ("b", "a"), ("a", "v * 2 AS v2"),
                ("CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END AS tier", "a"),
            ])),
            source="r",
            where=tuple(rng.sample(predicates[:-1], rng.randint(1, 2))),
            distinct=rng.random() < 0.3,
        )
    if shape == "join":
        return Query(
            select=("r.b", "s.d"),
            source="r, s",
            where=("r.a = s.a", rng.choice([
                f"r.a {rng.choice(['<', '>='])} {rng.randint(0, 6)}",
                f"s.d >= {rng.randint(0, 3)}",
                "r.b IS NOT NULL",
                f"r.a + s.d > {rng.randint(0, 8)}",
            ])),
        )
    if shape == "aggregate":
        aggregate = rng.choice([
            ("count(*) AS n",), ("sum(v) AS total",),
            ("min(v) AS lo", "max(a) AS hi"), ("avg(a) AS mean",),
        ])
        return Query(select=("b",) + aggregate, source="r", group_by=("b",),
                     modes=("direct",))
    if shape == "limit":
        limit = rng.choice([str(rng.randint(0, 5)), ":n"])
        return Query(
            select=("a", "b"),
            source="r",
            order_by=f"a {rng.choice(['ASC', 'DESC'])}, b",
            limit=limit,
            # Bind exactly the used placeholder: the session checks argument
            # counts exactly (surplus named values are a user error).
            params={"n": rng.randint(0, 5)} if limit == ":n" else None,
        )
    if shape == "param":
        return Query(
            select=("a", "b"),
            source="r",
            where=("a >= :lo",) + tuple(rng.sample(predicates[:-1], 1)),
            params={"lo": rng.randint(0, 4)},
        )
    return Query(
        select=("a",), source="r", where=("a < 3",),
        union=Query(select=("d",), source="s",
                    where=(f"d >= {rng.randint(0, 2)}",)),
    )


# ---------------------------------------------------------------------------
# Execution and comparison.
# ---------------------------------------------------------------------------


def open_sessions(uadb: UADatabase, seed: int,
                  store_dir: str) -> List[Tuple[str, "repro.Connection"]]:
    """One session per configuration, all over the same UA-database."""
    sessions: List[Tuple[str, repro.Connection]] = []
    for config in CONFIGS:
        if config == "sqlite-disk":
            path = os.path.join(store_dir, f"diff-{seed}.uadb")
            connection = repro.connect(path, engine="sqlite",
                                       name=f"diff{seed}-{config}")
        else:
            connection = repro.connect(engine=config,
                                       name=f"diff{seed}-{config}")
        connection.register_ua_database(uadb)
        sessions.append((config, connection))
    return sessions


def close_sessions(sessions: Sequence[Tuple[str, "repro.Connection"]]) -> None:
    for _, connection in sessions:
        connection.close()


def run_query(sessions: Sequence[Tuple[str, "repro.Connection"]],
              query: Query) -> Optional[str]:
    """Execute ``query`` on every (configuration, query path) pair.

    Returns a mismatch description, or None on full agreement.  Rewritten
    and direct results are compared against one shared baseline: engines
    must agree with each other *and* the rewriting must agree with native
    K_UA evaluation (Theorem 7).
    """
    sql = query.to_sql()
    outcomes = []
    for mode in query.modes:
        for config, connection in sessions:
            run = (connection.query if mode == "rewritten"
                   else connection.query_direct)
            label = f"{config}/{mode}"
            try:
                result = run(sql, query.params)
                outcomes.append((label, result.relation, result.labeled_rows()))
            except Exception as exc:  # a raise is itself a differential signal
                outcomes.append((label, "error", f"{type(exc).__name__}: {exc}"))
    base_label, base_relation, base_labels = outcomes[0]
    for label, relation, labels in outcomes[1:]:
        if isinstance(base_relation, str) or isinstance(relation, str):
            if (isinstance(base_relation, str) != isinstance(relation, str)):
                return (f"{label} and {base_label} disagree: "
                        f"{labels!r} vs {base_labels!r}")
            continue  # both errored identically enough: not a differential
        if relation != base_relation:
            return (f"{label} returned a different relation than "
                    f"{base_label}: {sorted(relation.items(), key=repr)!r} "
                    f"vs {sorted(base_relation.items(), key=repr)!r}")
        if labels != base_labels:
            return (f"{label} labeled rows differently than {base_label}: "
                    f"{labels!r} vs {base_labels!r}")
    return None


# ---------------------------------------------------------------------------
# Shrinking.
# ---------------------------------------------------------------------------


def _candidates(query: Query) -> List[Query]:
    """Strictly simpler variants of ``query`` (each drops one component)."""
    simpler: List[Query] = []
    if query.union is not None:
        simpler.append(replace(query, union=None))
    for i in range(len(query.where)):
        simpler.append(replace(
            query, where=query.where[:i] + query.where[i + 1:]
        ))
    if query.distinct:
        simpler.append(replace(query, distinct=False))
    if query.limit is not None:
        simpler.append(replace(query, limit=None))
    if query.order_by is not None and query.limit is None:
        simpler.append(replace(query, order_by=None))
    if not query.group_by and len(query.select) > 1:
        simpler.append(replace(query, select=query.select[:1]))
    return simpler


def shrink(query: Query, still_fails: Callable[[Query], bool],
           candidates: Callable[[Query], List[Query]] = _candidates) -> Query:
    """Greedily minimize ``query`` while ``still_fails`` holds.

    Joins keep their equi-join predicate (dropping it is still valid SQL --
    a cross product -- so the shrinker may try it; the predicate is just a
    ``where`` entry).  The result is the smallest variant reached by
    single-component drops that still reproduces the failure.
    ``candidates`` swaps in the simplification rules of another query
    shape (the attribute-level harness passes its own).
    """
    changed = True
    while changed:
        changed = False
        for candidate in candidates(query):
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False  # an invalid shrink is not a reproduction
            if failing:
                query = candidate
                changed = True
                break
    return query


# ---------------------------------------------------------------------------
# Seed runner.
# ---------------------------------------------------------------------------


def run_seed(seed: int, store_dir: Optional[str] = None,
             queries: int = QUERIES_PER_SEED,
             log_path: Optional[str] = None) -> List[Failure]:
    """Run one seed's random queries across every configuration.

    Returns the (minimized) failures; an empty list means full agreement.
    ``log_path`` defaults to ``$REPRO_DIFF_LOG`` (no logging when unset).
    """
    rng = random.Random(seed)
    owns_dir = store_dir is None
    if owns_dir:
        store_dir = tempfile.mkdtemp(prefix=f"uadb-diff-{seed}-")
    failures: List[Failure] = []
    sessions = open_sessions(build_source(rng), seed, store_dir)
    try:
        for index in range(queries):
            query = random_query(rng)
            detail = run_query(sessions, query)
            if detail is None:
                continue
            minimal = shrink(
                query, lambda q: run_query(sessions, q) is not None
            )
            failures.append(Failure(seed, index, query, minimal, detail))
    finally:
        close_sessions(sessions)
        if owns_dir:
            shutil.rmtree(store_dir, ignore_errors=True)
    _log_seed(seed, queries, failures, log_path)
    return failures


def _log_seed(seed: int, queries: int, failures: List[Failure],
              log_path: Optional[str],
              configs: Sequence[str] = CONFIGS,
              kind: str = "tuple") -> None:
    log_path = log_path or os.environ.get(DIFF_LOG_ENV_VAR)
    if not log_path:
        return
    with open(log_path, "a", encoding="utf-8") as log:
        if not failures:
            log.write(f"kind={kind} seed={seed} queries={queries} "
                      f"configs={','.join(configs)} status=ok\n")
        for failure in failures:
            log.write(f"kind={kind} seed={seed} status=FAIL "
                      f"minimal={failure.minimal.to_sql()!r} "
                      f"params={failure.minimal.params!r} "
                      f"detail={failure.detail!r}\n")


# ---------------------------------------------------------------------------
# Attribute-level (AU-DB) harness: range containment vs. world enumeration.
# ---------------------------------------------------------------------------

#: Execution configurations of the attribute-level harness.
ATTRIBUTE_CONFIGS: Tuple[str, ...] = CONFIGS

#: Random attribute-level queries generated per seed.
ATTRIBUTE_QUERIES_PER_SEED = 5

#: Hard cap on the number of possible worlds a generated source may have:
#: the oracle enumerates every one, so the generator resamples until the
#: count (a closed-form product over fragments) fits under the cap.
WORLD_CAP = 600

#: Column names of the harness's two attribute-mode tables.  ``t`` is a
#: native range relation, ``r`` a tuple-level UA relation entering the
#: attribute path through the degenerate conversion; the names are
#: disjoint on purpose so join queries need no qualification.
TABLE_COLUMNS: Dict[str, Tuple[str, ...]] = {"t": ("g", "x"), "r": ("a", "v")}

#: An expression or predicate: its SQL text plus an independent Python
#: evaluator over ``(env, params)``, where ``env`` maps column names of
#: the tables in scope to one joined row's values.
Expr = Tuple[str, Callable[[Dict[str, Any], Dict[str, Any]], Any]]
#: One aggregate: SQL text, kind ("count"/"sum"/"min"/"max"), argument
#: expression evaluator (None for ``count(*)``).
AggExpr = Tuple[str, str,
                Optional[Callable[[Dict[str, Any], Dict[str, Any]], Any]]]


@dataclass(frozen=True)
class AttributeQuery:
    """A generated attribute-mode statement, structured for shrinking.

    Unlike :class:`Query`, every SQL component carries its own Python
    evaluator closure, so the world-enumeration oracle computes the
    deterministic answer without parsing SQL -- the oracle and the system
    under test share nothing but the generator.
    """

    tables: Tuple[str, ...]
    select: Tuple[Expr, ...] = ()
    where: Tuple[Expr, ...] = ()
    group_by: Tuple[Expr, ...] = ()
    aggregates: Tuple[AggExpr, ...] = ()
    distinct: bool = False
    union: Optional["AttributeQuery"] = None
    params: Optional[Dict[str, object]] = None

    def to_sql(self) -> str:
        columns = [sql for sql, _ in self.select]
        columns += [sql for sql, _, _ in self.aggregates]
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(", ".join(columns))
        parts.append(" FROM " + ", ".join(self.tables))
        if self.where:
            parts.append(" WHERE " + " AND ".join(sql for sql, _ in self.where))
        if self.group_by:
            parts.append(" GROUP BY "
                         + ", ".join(sql for sql, _ in self.group_by))
        sql = "".join(parts)
        if self.union is not None:
            sql = f"{sql} UNION ALL {self.union.to_sql()}"
        return sql

    def __str__(self) -> str:
        return f"{self.to_sql()!r} params={self.params!r}"


#: One fragment of the uncertain source: table name, per-attribute
#: ``(lower, best, upper)`` ranges, multiplicity triple.
Fragment = Tuple[str, Tuple[Tuple[Any, Any, Any], ...], Tuple[int, int, int]]


@dataclass
class AttributeSource:
    """One seed's uncertain database plus its flattened fragment list."""

    native: AttributeBoundsRelation
    uadb: UADatabase
    #: Every fragment of every table (``t`` native, ``r`` via the
    #: degenerate UA conversion) -- the input to world enumeration.
    fragments: List[Fragment] = field(default_factory=list)


def _fragment_world_count(ranges, multiplicity) -> int:
    """How many distinct contributions one fragment has across all worlds.

    A fragment with a value box of ``m`` points and count range ``[l, u]``
    chooses a multiset of ``k`` points for each ``k`` in ``[l, u]`` --
    ``C(m + k - 1, k)`` multisets each.
    """
    box = 1
    for lower, _, upper in ranges:
        box *= 1 if lower is None else (upper - lower + 1)
    low, _, high = multiplicity
    return sum(math.comb(box + k - 1, k) for k in range(low, high + 1))


def build_attribute_source(rng: random.Random) -> AttributeSource:
    """A random uncertain database small enough to enumerate every world.

    ``t(g, x)`` is a native attribute relation: 1-3 fragments with narrow
    integer ranges (width <= 2) and multiplicity triples drawn from the
    interesting patterns (certain, possibly-absent, duplicated,
    upper-bounded-only).  ``r(a, v)`` is a tuple-level UA relation whose
    fragments come from the degenerate conversion, so the harness also
    covers the UA -> AU entry path.  Resamples until the total world count
    fits under :data:`WORLD_CAP`; the final attempt degrades to a fully
    certain source (exactly one world), so the function always returns.
    """
    for attempt in range(64):
        certain_only = attempt == 63
        native = AttributeBoundsRelation(RelationSchema("t", (
            Attribute("g", DataType.INTEGER),
            Attribute("x", DataType.INTEGER))))
        fragments: List[Fragment] = []
        for _ in range(rng.randint(1, 3)):
            g_low = rng.randint(0, 3)
            g_high = g_low + rng.choice((0, 0, 0, 1))
            x_low = rng.randint(0, 8)
            x_high = x_low + rng.choice((0, 0, 1, 2))
            multiplicity = rng.choice(
                ((1, 1, 1), (1, 1, 1), (0, 1, 1), (1, 1, 2), (0, 0, 1),
                 (0, 1, 2)))
            if certain_only:
                g_high, x_high, multiplicity = g_low, x_low, (1, 1, 1)
            ranges = ((g_low, rng.randint(g_low, g_high), g_high),
                      (x_low, rng.randint(x_low, x_high), x_high))
            native.add_bounded(ranges, multiplicity)
        uadb = UADatabase(NATURAL, "attrdiff")
        r = UARelation(RelationSchema("r", [
            Attribute("a", DataType.INTEGER),
            Attribute("v", DataType.INTEGER),
        ]), uadb.ua_semiring)
        for _ in range(rng.randint(1, 3)):
            determinized = 1 if certain_only else rng.randint(1, 2)
            certain = determinized if certain_only \
                else rng.randint(0, determinized)
            r.add_tuple((rng.randint(0, 3), rng.randint(0, 8)),
                        certain=certain, determinized=determinized)
        uadb.add_relation(r)
        for ranges, multiplicity in native.items():
            fragments.append(("t", ranges, multiplicity))
        for ranges, multiplicity in \
                AttributeBoundsRelation.from_ua_relation(r).items():
            fragments.append(("r", ranges, multiplicity))
        total = 1
        for _, ranges, multiplicity in fragments:
            total *= _fragment_world_count(ranges, multiplicity)
        if total <= WORLD_CAP:
            return AttributeSource(native, uadb, fragments)
    raise AssertionError("unreachable: the certain-only attempt has 1 world")


def _range_points(bounds) -> List[Any]:
    """Every value a range can take (integer domains; all-None is NULL)."""
    lower, _, upper = bounds
    if lower is None:
        return [None]
    return list(range(lower, upper + 1))


def enumerate_attribute_worlds(
        fragments: Sequence[Fragment]) -> List[Dict[str, Dict[Tuple, int]]]:
    """Materialize every possible world of a fragment list.

    Each fragment independently picks a multiset of ``k`` points from its
    value box for some ``k`` in ``[m_lb, m_ub]``; a world is one choice
    per fragment, represented as a bag (row -> count) per table.
    """
    per_fragment: List[Tuple[str, List[Tuple[Tuple, ...]]]] = []
    for table, ranges, multiplicity in fragments:
        box = list(itertools.product(*(_range_points(r) for r in ranges)))
        low, _, high = multiplicity
        choices: List[Tuple[Tuple, ...]] = []
        for count in range(low, high + 1):
            choices.extend(itertools.combinations_with_replacement(box, count))
        per_fragment.append((table, choices))
    worlds: List[Dict[str, Dict[Tuple, int]]] = []
    for combo in itertools.product(*(c for _, c in per_fragment)):
        world: Dict[str, Dict[Tuple, int]] = {name: {} for name in TABLE_COLUMNS}
        for (table, _), chosen in zip(per_fragment, combo):
            for row in chosen:
                world[table][row] = world[table].get(row, 0) + 1
        worlds.append(world)
    return worlds


def attribute_best_guess_world(
        fragments: Sequence[Fragment]) -> Dict[str, Dict[Tuple, int]]:
    """The best-guess world: ``m_bg`` copies of every fragment's best row."""
    world: Dict[str, Dict[Tuple, int]] = {name: {} for name in TABLE_COLUMNS}
    for table, ranges, (_, best, _) in fragments:
        if best >= 1:
            row = tuple(r[1] for r in ranges)
            world[table][row] = world[table].get(row, 0) + best
    return world


# -- the independent per-world evaluator --------------------------------------


def _oracle_arm(query: AttributeQuery, world: Dict[str, Dict[Tuple, int]],
                params: Dict[str, Any]) -> Dict[Tuple, int]:
    """One SELECT arm over one concrete world, as a bag (row -> count)."""
    envs: List[Tuple[Dict[str, Any], int]] = [({}, 1)]
    for table in query.tables:
        columns = TABLE_COLUMNS[table]
        grown: List[Tuple[Dict[str, Any], int]] = []
        for env, count in envs:
            for row, row_count in world[table].items():
                child = dict(env)
                child.update(zip(columns, row))
                grown.append((child, count * row_count))
        envs = grown
    envs = [(env, count) for env, count in envs
            if all(evaluate(env, params) for _, evaluate in query.where)]
    answer: Dict[Tuple, int] = {}
    if query.aggregates:
        groups: Dict[Tuple, List[Tuple[Dict[str, Any], int]]] = {}
        for env, count in envs:
            key = tuple(evaluate(env, params)
                        for _, evaluate in query.group_by)
            groups.setdefault(key, []).append((env, count))
        for key, members in groups.items():
            values: List[Any] = []
            for _, kind, argument in query.aggregates:
                if kind == "count":
                    values.append(sum(count for _, count in members))
                    continue
                data = [argument(env, params) for env, count in members
                        for _ in range(count)]
                values.append({"sum": sum, "min": min, "max": max}[kind](data))
            row = key + tuple(values)
            answer[row] = answer.get(row, 0) + 1
        return answer
    for env, count in envs:
        row = tuple(evaluate(env, params) for _, evaluate in query.select)
        answer[row] = answer.get(row, 0) + count
    if query.distinct:
        return {row: 1 for row in answer}
    return answer


def oracle_answer(query: AttributeQuery, world: Dict[str, Dict[Tuple, int]],
                  params: Optional[Dict[str, Any]]) -> Dict[Tuple, int]:
    """The deterministic answer of ``query`` over one concrete world."""
    params = params or {}
    answer = _oracle_arm(query, world, params)
    if query.union is not None:
        for row, count in _oracle_arm(query.union, world, params).items():
            answer[row] = answer.get(row, 0) + count
    return answer


# -- range containment as a feasibility flow ----------------------------------


class _MaxFlow:
    """A tiny Edmonds-Karp max-flow solver for the coverage check."""

    def __init__(self, nodes: int) -> None:
        self.head: List[int] = []
        self.capacity: List[int] = []
        self.adjacent: List[List[int]] = [[] for _ in range(nodes)]

    def edge(self, source: int, sink: int, capacity: int) -> None:
        self.adjacent[source].append(len(self.head))
        self.head.append(sink)
        self.capacity.append(capacity)
        self.adjacent[sink].append(len(self.head))
        self.head.append(source)
        self.capacity.append(0)

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            parent_edge: Dict[int, int] = {source: -1}
            frontier = [source]
            while frontier and sink not in parent_edge:
                node = frontier.pop(0)
                for index in self.adjacent[node]:
                    target = self.head[index]
                    if self.capacity[index] > 0 and target not in parent_edge:
                        parent_edge[target] = index
                        frontier.append(target)
            if sink not in parent_edge:
                return total
            bottleneck = None
            node = sink
            while node != source:
                index = parent_edge[node]
                if bottleneck is None or self.capacity[index] < bottleneck:
                    bottleneck = self.capacity[index]
                node = self.head[index ^ 1]
            node = sink
            while node != source:
                index = parent_edge[node]
                self.capacity[index] -= bottleneck
                self.capacity[index ^ 1] += bottleneck
                node = self.head[index ^ 1]
            total += bottleneck


def _range_contains(ranges: Tuple, row: Tuple) -> bool:
    """Whether a fragment's ranges cover one concrete answer row."""
    if len(ranges) != len(row):
        return False
    for (lower, _, upper), value in zip(ranges, row):
        if value is None:
            if lower is not None:
                return False
            continue
        if lower is None:
            return False
        try:
            if not lower <= value <= upper:
                return False
        except TypeError:
            return False
    return True


def covered(answer: Dict[Tuple, int],
            fragments: Sequence[Tuple[Tuple, Tuple[int, int, int]]]) -> bool:
    """Whether one world's answer bag is coverable by the produced fragments.

    Feasibility of assigning every answer tuple to a fragment whose
    ranges contain it, with every fragment's load inside
    ``[m_lb, m_ub]`` -- a circulation with lower bounds, decided by the
    standard excess-node max-flow reduction.
    """
    rows = sorted(answer.items(), key=lambda item: repr(item[0]))
    nodes = 2 + len(rows) + len(fragments) + 2
    source, sink = 0, 1
    super_source, super_sink = nodes - 2, nodes - 1
    network = _MaxFlow(nodes)
    excess = [0] * nodes

    def bounded_edge(origin: int, target: int, low: int, high: int) -> None:
        network.edge(origin, target, high - low)
        excess[target] += low
        excess[origin] -= low

    for i, (row, count) in enumerate(rows):
        bounded_edge(source, 2 + i, count, count)
        for j, (ranges, _) in enumerate(fragments):
            if _range_contains(ranges, row):
                network.edge(2 + i, 2 + len(rows) + j, count)
    for j, (_, (low, _, high)) in enumerate(fragments):
        bounded_edge(2 + len(rows) + j, sink, low, high)
    network.edge(sink, source, 1 << 30)
    required = 0
    for node in range(nodes - 2):
        if excess[node] > 0:
            network.edge(super_source, node, excess[node])
            required += excess[node]
        elif excess[node] < 0:
            network.edge(node, super_sink, -excess[node])
    return network.max_flow(super_source, super_sink) == required


# -- attribute-level query generator ------------------------------------------


def _t_predicates(rng: random.Random) -> List[Expr]:
    """Fresh random predicates over ``t(g, x)`` (SQL + evaluator pairs)."""
    g_bound = rng.randint(0, 3)
    x_bound = rng.randint(2, 9)
    low, high = rng.randint(0, 4), rng.randint(4, 9)
    total = rng.randint(3, 9)
    return [
        (f"g <= {g_bound}",
         lambda env, p, k=g_bound: env["g"] <= k),
        (f"g = {g_bound}",
         lambda env, p, k=g_bound: env["g"] == k),
        (f"x < {x_bound}",
         lambda env, p, k=x_bound: env["x"] < k),
        (f"x BETWEEN {low} AND {high}",
         lambda env, p, lo=low, hi=high: lo <= env["x"] <= hi),
        (f"x + g > {total}",
         lambda env, p, k=total: env["x"] + env["g"] > k),
    ]


_T_SELECTS: Tuple[Tuple[Expr, ...], ...] = (
    (("g", lambda env, p: env["g"]), ("x", lambda env, p: env["x"])),
    (("x", lambda env, p: env["x"]),),
    (("g", lambda env, p: env["g"]),
     ("x + 2 AS y", lambda env, p: env["x"] + 2)),
    (("x * 2 AS d", lambda env, p: env["x"] * 2),
     ("g", lambda env, p: env["g"])),
    (("g + x AS s", lambda env, p: env["g"] + env["x"]),),
)

_AGGREGATES: Tuple[AggExpr, ...] = (
    ("count(*) AS n", "count", None),
    ("sum(x) AS total", "sum", lambda env, p: env["x"]),
    ("min(x) AS lo", "min", lambda env, p: env["x"]),
    ("max(x) AS hi", "max", lambda env, p: env["x"]),
)


def random_attribute_query(rng: random.Random) -> AttributeQuery:
    """One random attribute-mode statement over ``t`` (and sometimes ``r``).

    Aggregation shapes are drawn with weight: they are the expressiveness
    this harness exists to pin (tuple-level UA rejects them outright).
    """
    predicates = _t_predicates(rng)
    shape = rng.choice(("scan", "scan", "join", "group", "group-join",
                        "scalar", "union", "param"))
    if shape == "scan":
        return AttributeQuery(
            tables=("t",),
            select=rng.choice(_T_SELECTS),
            where=tuple(rng.sample(predicates, rng.randint(1, 2))),
            distinct=rng.random() < 0.3,
        )
    if shape == "join":
        v_bound = rng.randint(0, 8)
        return AttributeQuery(
            tables=("t", "r"),
            select=(("g", lambda env, p: env["g"]),
                    ("v", lambda env, p: env["v"])),
            where=(("g = a", lambda env, p: env["g"] == env["a"]),
                   rng.choice(predicates
                              + [(f"v >= {v_bound}",
                                  lambda env, p, k=v_bound: env["v"] >= k)])),
        )
    if shape == "group":
        return AttributeQuery(
            tables=("t",),
            select=(("g", lambda env, p: env["g"]),),
            where=tuple(rng.sample(predicates, rng.randint(0, 1))),
            group_by=(("g", lambda env, p: env["g"]),),
            aggregates=tuple(
                rng.sample(_AGGREGATES, rng.randint(1, 2))),
        )
    if shape == "group-join":
        return AttributeQuery(
            tables=("t", "r"),
            select=(("g", lambda env, p: env["g"]),),
            where=(("g = a", lambda env, p: env["g"] == env["a"]),),
            group_by=(("g", lambda env, p: env["g"]),),
            aggregates=rng.choice((
                (("sum(v) AS total", "sum", lambda env, p: env["v"]),),
                (("count(*) AS n", "count", None),),
                (("min(v) AS lo", "min", lambda env, p: env["v"]),
                 ("max(v) AS hi", "max", lambda env, p: env["v"])),
            )),
        )
    if shape == "scalar":
        return AttributeQuery(
            tables=("t",),
            where=tuple(rng.sample(predicates, rng.randint(0, 1))),
            aggregates=tuple(rng.sample(_AGGREGATES, rng.randint(1, 2))),
        )
    if shape == "union":
        a_bound = rng.randint(0, 3)
        return AttributeQuery(
            tables=("t",),
            select=(("g", lambda env, p: env["g"]),),
            where=tuple(rng.sample(predicates, 1)),
            union=AttributeQuery(
                tables=("r",),
                select=(("a", lambda env, p: env["a"]),),
                where=((f"a <= {a_bound}",
                        lambda env, p, k=a_bound: env["a"] <= k),),
            ),
        )
    return AttributeQuery(
        tables=("t",),
        select=rng.choice(_T_SELECTS),
        where=(("g >= :lo", lambda env, p: env["g"] >= p["lo"]),)
        + tuple(rng.sample(predicates, 1)),
        params={"lo": rng.randint(0, 3)},
    )


def _attribute_candidates(query: AttributeQuery) -> List[AttributeQuery]:
    """Strictly simpler variants of an attribute query (shrinking rules)."""
    simpler: List[AttributeQuery] = []
    if query.union is not None:
        simpler.append(replace(query, union=None))
    for i in range(len(query.where)):
        simpler.append(replace(
            query, where=query.where[:i] + query.where[i + 1:]))
    if query.distinct:
        simpler.append(replace(query, distinct=False))
    if len(query.aggregates) > 1:
        simpler.append(replace(query, aggregates=query.aggregates[:1]))
    if not query.group_by and not query.aggregates and len(query.select) > 1:
        simpler.append(replace(query, select=query.select[:1]))
    return simpler


# -- attribute-level execution and seed runner --------------------------------


def public_attribute_database(uadb: UADatabase, engine: Optional[str],
                              *natives: AttributeBoundsRelation):
    """Logical catalog, triple-layout execution database and certainty map
    of ``natives`` plus every relation of ``uadb`` seen through
    :meth:`AttributeBoundsRelation.from_ua_relation`, from public pieces:
    the reference a session's attribute mode must agree with."""
    catalog = DatabaseSchema()
    database = Database(NATURAL, "reference", engine=engine)
    certain = {}
    relations = list(natives) + [
        AttributeBoundsRelation.from_ua_relation(relation)
        for relation in uadb]
    for relation in relations:
        catalog.add(relation.schema)
        database.add_relation(encode_attribute_relation(relation, NATURAL))
        certain[relation.schema.name] = relation.certain_attributes()
    return catalog, database, certain


def degenerate_reference(uadb: UADatabase, engine: Optional[str],
                         *natives: AttributeBoundsRelation) -> "repro.Connection":
    """A session that registered ``natives`` and every relation of ``uadb``
    through :meth:`AttributeBoundsRelation.from_ua_relation`: what attribute
    mode over the relations' ``Enc`` tables must answer."""
    connection = repro.connect(engine=engine, name="degenerate-reference")
    for relation in list(natives) + [
            AttributeBoundsRelation.from_ua_relation(relation)
            for relation in uadb]:
        connection.register_attribute_relation(relation)
    return connection


def open_attribute_sessions(
        source: AttributeSource, seed: int,
        store_dir: str) -> List[Tuple[str, "repro.Connection"]]:
    """One session per attribute configuration, sharing one source."""
    sessions: List[Tuple[str, repro.Connection]] = []
    for config in ATTRIBUTE_CONFIGS:
        if config == "sqlite-disk":
            path = os.path.join(store_dir, f"attr-{seed}.uadb")
            connection = repro.connect(path, engine="sqlite",
                                       name=f"attr{seed}-{config}")
        else:
            connection = repro.connect(engine=config,
                                       name=f"attr{seed}-{config}")
        connection.register_attribute_relation(source.native)
        connection.register_ua_database(source.uadb)
        sessions.append((config, connection))
    return sessions


def run_attribute_query(sessions: Sequence[Tuple[str, "repro.Connection"]],
                        worlds: Sequence[Dict[str, Dict[Tuple, int]]],
                        bg_world: Dict[str, Dict[Tuple, int]],
                        query: AttributeQuery) -> Optional[str]:
    """Execute one attribute query everywhere and check it against the oracle.

    Returns a failure description or None.  The generator only emits
    statements inside the range-rewriting fragment, so *any* exception is
    itself a failure (unlike the tuple-level harness, which tolerates
    agreeing errors).
    """
    sql = query.to_sql()
    outcomes = []
    for config, connection in sessions:
        try:
            result = connection.query_bounds(sql, query.params)
        except Exception as exc:
            return f"{config} raised {type(exc).__name__}: {exc}"
        outcomes.append((config, result.relation))
    base_config, base = outcomes[0]
    for config, relation in outcomes[1:]:
        if relation != base:
            return (f"{config} returned different fragments than "
                    f"{base_config}: {relation.bounded_rows()!r} vs "
                    f"{base.bounded_rows()!r}")
    try:
        base.check_invariant()
    except Exception as exc:
        return f"invariant violated: {exc}"
    fragments = base.bounded_rows()
    oracle_bg = oracle_answer(query, bg_world, query.params)
    if oracle_bg != base.best_guess_counts():
        return (f"best-guess bag mismatch: engines say "
                f"{base.best_guess_counts()!r}, the best-guess world "
                f"evaluates to {oracle_bg!r}")
    for world in worlds:
        answer = oracle_answer(query, world, query.params)
        if not covered(answer, fragments):
            return (f"containment violated: world {world!r} answers "
                    f"{answer!r}, not coverable by {fragments!r}")
    return None


def run_attribute_seed(seed: int, store_dir: Optional[str] = None,
                       queries: int = ATTRIBUTE_QUERIES_PER_SEED,
                       log_path: Optional[str] = None) -> List[Failure]:
    """Run one seed of the attribute-level harness (world-enumeration oracle).

    Returns the (minimized) failures; an empty list means every random
    query's bounds contained every possible world's answer, matched the
    best-guess world exactly, kept the range/multiplicity invariants and
    agreed across every engine.
    """
    rng = random.Random(seed)
    owns_dir = store_dir is None
    if owns_dir:
        store_dir = tempfile.mkdtemp(prefix=f"uadb-attr-{seed}-")
    source = build_attribute_source(rng)
    worlds = enumerate_attribute_worlds(source.fragments)
    bg_world = attribute_best_guess_world(source.fragments)
    failures: List[Failure] = []
    sessions = open_attribute_sessions(source, seed, store_dir)
    try:
        for index in range(queries):
            query = random_attribute_query(rng)
            detail = run_attribute_query(sessions, worlds, bg_world, query)
            if detail is None:
                continue
            minimal = shrink(
                query,
                lambda q: run_attribute_query(
                    sessions, worlds, bg_world, q) is not None,
                candidates=_attribute_candidates,
            )
            failures.append(Failure(seed, index, query, minimal, detail))
    finally:
        close_sessions(sessions)
        if owns_dir:
            shutil.rmtree(store_dir, ignore_errors=True)
    _log_seed(seed, queries, failures, log_path,
              configs=ATTRIBUTE_CONFIGS, kind="attribute")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python tests/differential.py [--attribute] [--seeds N | --seed K]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=40,
                        help="number of seeds to run (default 40)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run one specific seed only")
    parser.add_argument("--queries", type=int, default=None,
                        help="random queries per seed")
    parser.add_argument("--attribute", action="store_true",
                        help="run the attribute-level (AU-DB) harness: "
                             "range containment vs. world enumeration")
    arguments = parser.parse_args(argv)
    seeds = [arguments.seed] if arguments.seed is not None \
        else list(range(arguments.seeds))
    if arguments.attribute:
        runner, configs = run_attribute_seed, ATTRIBUTE_CONFIGS
        queries = arguments.queries or ATTRIBUTE_QUERIES_PER_SEED
    else:
        runner, configs = run_seed, CONFIGS
        queries = arguments.queries or QUERIES_PER_SEED
    total_failures = 0
    for seed in seeds:
        failures = runner(seed, queries=queries)
        status = "ok" if not failures else f"{len(failures)} FAILURES"
        print(f"seed {seed}: {queries} queries x "
              f"{len(configs)} configs -> {status}")
        for failure in failures:
            print(f"  {failure}")
        total_failures += len(failures)
    print(f"{len(seeds)} seeds, {total_failures} failures")
    return 1 if total_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
