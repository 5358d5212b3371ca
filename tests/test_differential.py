"""The randomized differential harness as a tier-1 suite.

Runs ``tests/differential.py`` -- 40 seeds x 5 random queries, each executed
on all four configurations (row, columnar, in-memory sqlite, persistent
sqlite) = 200 queries x 4 configs -- and asserts full agreement on rows,
annotations and certain/uncertain labels.  Plus unit tests pinning the
harness's own machinery: determinism of the generator, validity of every
generated statement, and the greedy shrinker.

The attribute-level half runs the AU-DB harness: for every randomized
query (including grouping/scalar aggregation, which tuple-level UA rejects
outright) the produced ``[lower, best, upper]`` fragments must contain the
deterministic answer of **every enumerated possible world**, match the
best-guess world exactly, keep the range/multiplicity invariants and agree
across all four engine configurations.
"""

from __future__ import annotations

import os
import random

import pytest

from differential import (
    ATTRIBUTE_CONFIGS,
    ATTRIBUTE_QUERIES_PER_SEED,
    CONFIGS,
    QUERIES_PER_SEED,
    AttributeQuery,
    Query,
    attribute_best_guess_world,
    build_attribute_source,
    build_source,
    close_sessions,
    covered,
    enumerate_attribute_worlds,
    open_attribute_sessions,
    open_sessions,
    oracle_answer,
    random_attribute_query,
    random_query,
    run_attribute_query,
    run_attribute_seed,
    run_query,
    run_seed,
    shrink,
)

#: 40 seeds x QUERIES_PER_SEED(5) = 200 random statements per run; override
#: with REPRO_DIFF_SEEDS to dial coverage up or down.
SEED_COUNT = int(os.environ.get("REPRO_DIFF_SEEDS", "40"))

#: Seeds of the attribute-level (world-enumeration) harness; override with
#: REPRO_DIFF_ATTR_SEEDS.
ATTRIBUTE_SEED_COUNT = int(os.environ.get("REPRO_DIFF_ATTR_SEEDS", "20"))


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_differential_agreement(seed, tmp_path):
    """Every random query agrees across all four execution configurations."""
    failures = run_seed(seed, store_dir=str(tmp_path))
    assert not failures, "\n".join(str(failure) for failure in failures)


def test_configurations_cover_persistent_store(tmp_path):
    """The matrix really includes the on-disk configuration (and it is used)."""
    assert "sqlite-disk" in CONFIGS
    sessions = open_sessions(build_source(random.Random(7)), 7, str(tmp_path))
    try:
        by_name = dict(sessions)
        assert by_name["sqlite-disk"].store is not None
        assert os.path.exists(by_name["sqlite-disk"].store.path)
        if not os.environ.get("REPRO_STORE_DIR"):
            # (Under the CI on-disk axis every connection is store-backed.)
            assert all(by_name[name].store is None
                       for name in ("row", "columnar", "sqlite"))
        assert run_query(sessions, random_query(random.Random(7))) is None
    finally:
        close_sessions(sessions)


def test_generator_is_deterministic():
    """Fixed seed -> identical SQL text and bindings (reproducible reports)."""
    first = [random_query(random.Random(123)) for _ in range(10)]
    second = [random_query(random.Random(123)) for _ in range(10)]
    assert [q.to_sql() for q in first] == [q.to_sql() for q in second]
    assert [q.params for q in first] == [q.params for q in second]


def test_generated_statements_are_valid(tmp_path):
    """No generated statement errors on any configuration or query path.

    ``run_query`` tolerates *identical* errors everywhere (that is still
    agreement); this pins the stronger property that the generator only
    produces statements inside each query path's supported fragment.
    """
    rng = random.Random(999)
    sessions = open_sessions(build_source(rng), 999, str(tmp_path))
    try:
        for _ in range(20):
            query = random_query(rng)
            for mode in query.modes:
                for _, connection in sessions:
                    run = (connection.query if mode == "rewritten"
                           else connection.query_direct)
                    run(query.to_sql(), query.params)  # must not raise
    finally:
        close_sessions(sessions)


def test_shrinker_minimizes_to_failing_component():
    """The shrinker drops everything not needed to reproduce the failure."""
    query = Query(
        select=("a", "b", "v"),
        source="r",
        where=("a < 3", "b IS NOT NULL", "v BETWEEN 0.0 AND 2.5"),
        order_by="a ASC, b",
        limit="4",
        distinct=True,
        union=Query(select=("a",), source="r"),
    )
    minimal = shrink(query, lambda q: "b IS NOT NULL" in q.where)
    assert minimal.where == ("b IS NOT NULL",)
    assert minimal.union is None
    assert not minimal.distinct
    assert minimal.limit is None
    assert minimal.order_by is None
    assert minimal.select == ("a",)


def test_shrinker_keeps_original_when_nothing_simpler_fails():
    query = Query(select=("a",), source="r", where=("a < 3",))
    minimal = shrink(query, lambda q: q.where == ("a < 3",))
    assert minimal == query


def test_seed_log_is_written(tmp_path):
    log_path = tmp_path / "seeds.log"
    run_seed(3, store_dir=str(tmp_path), queries=2, log_path=str(log_path))
    content = log_path.read_text()
    assert "seed=3" in content
    assert "status=ok" in content


# ---------------------------------------------------------------------------
# Attribute-level (AU-DB) harness: world enumeration as the oracle.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(ATTRIBUTE_SEED_COUNT))
def test_attribute_containment(seed, tmp_path):
    """Every random attribute query's bounds contain every possible world.

    One seed = ATTRIBUTE_QUERIES_PER_SEED random statements (selections,
    joins, unions, DISTINCT, grouping and scalar aggregation) checked for
    range containment against full world enumeration, best-guess
    exactness, the lower <= best <= upper invariants and agreement across
    all four engine configurations.
    """
    failures = run_attribute_seed(seed, store_dir=str(tmp_path))
    assert not failures, "\n".join(str(failure) for failure in failures)


def test_attribute_generator_is_deterministic():
    """Fixed seed -> identical attribute SQL text and bindings."""
    first = [random_attribute_query(random.Random(321)) for _ in range(10)]
    second = [random_attribute_query(random.Random(321)) for _ in range(10)]
    assert [q.to_sql() for q in first] == [q.to_sql() for q in second]
    assert [q.params for q in first] == [q.params for q in second]


def test_attribute_generator_emits_aggregation():
    """The generator actually covers the headline expressiveness win."""
    rng = random.Random(5)
    queries = [random_attribute_query(rng) for _ in range(50)]
    assert any(q.aggregates and q.group_by for q in queries)
    assert any(q.aggregates and not q.group_by for q in queries)


def test_attribute_statements_are_valid(tmp_path):
    """No generated attribute statement errors on any configuration."""
    rng = random.Random(777)
    source = build_attribute_source(rng)
    sessions = open_attribute_sessions(source, 777, str(tmp_path))
    try:
        for _ in range(20):
            query = random_attribute_query(rng)
            for _, connection in sessions:
                connection.query_bounds(query.to_sql(), query.params)
    finally:
        close_sessions(sessions)


def test_world_enumeration_counts_fragment_choices():
    """A fragment with k in [0, 1] over a 2-point box has 3 choices."""
    fragments = [("t", ((0, 0, 1), (5, 5, 5)), (0, 1, 1))]
    worlds = enumerate_attribute_worlds(fragments)
    assert len(worlds) == 3  # empty, (0, 5), (1, 5)
    bags = sorted(repr(sorted(world["t"].items())) for world in worlds)
    assert bags == ["[((0, 5), 1)]", "[((1, 5), 1)]", "[]"]


def test_oracle_matches_hand_computed_aggregate():
    """The independent evaluator aggregates bags with multiplicities."""
    query = AttributeQuery(
        tables=("t",),
        select=(("g", lambda env, p: env["g"]),),
        group_by=(("g", lambda env, p: env["g"]),),
        aggregates=(("sum(x) AS total", "sum", lambda env, p: env["x"]),),
    )
    world = {"t": {(1, 5): 2, (1, 3): 1, (2, 7): 1}, "r": {}}
    assert oracle_answer(query, world, None) == {(1, 13): 1, (2, 7): 1}


def test_covered_accepts_and_rejects():
    """The feasibility flow enforces ranges and both multiplicity bounds."""
    fragments = [
        (((0, 1, 2),), (1, 1, 1)),   # one tuple, value in [0, 2], mandatory
        (((5, 5, 5),), (0, 1, 2)),   # up to two copies of exactly 5
    ]
    assert covered({(1,): 1}, fragments)            # mandatory alone
    assert covered({(2,): 1, (5,): 2}, fragments)   # both, at capacity
    assert not covered({(5,): 1}, fragments)        # mandatory missing
    assert not covered({(1,): 1, (5,): 3}, fragments)  # above m_ub
    assert not covered({(1,): 1, (7,): 1}, fragments)  # 7 outside all ranges
    assert not covered({(1,): 2}, fragments)        # two tuples, one slot


def test_attribute_shrinker_drops_noise():
    """The attribute shrinker minimizes to the failing component."""
    keep = ("x < 9", lambda env, p: env["x"] < 9)
    query = AttributeQuery(
        tables=("t",),
        select=(("g", lambda env, p: env["g"]),
                ("x", lambda env, p: env["x"])),
        where=(("g <= 2", lambda env, p: env["g"] <= 2), keep),
        distinct=True,
        union=AttributeQuery(tables=("r",),
                             select=(("a", lambda env, p: env["a"]),)),
    )
    from differential import _attribute_candidates

    minimal = shrink(query, lambda q: keep in q.where,
                     candidates=_attribute_candidates)
    assert minimal.where == (keep,)
    assert minimal.union is None
    assert not minimal.distinct
    assert len(minimal.select) == 1


def test_attribute_seed_log_mentions_kind(tmp_path):
    log_path = tmp_path / "seeds.log"
    run_attribute_seed(2, store_dir=str(tmp_path), queries=2,
                       log_path=str(log_path))
    content = log_path.read_text()
    assert "kind=attribute" in content
    assert "seed=2" in content
    assert "status=ok" in content
    assert ",".join(ATTRIBUTE_CONFIGS) in content
