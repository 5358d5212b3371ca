"""Ablation benchmarks for the design choices called out in DESIGN.md.

* **Encoding ablation** -- the Figure 8/9 rewriting over the ``Enc`` encoding
  versus direct evaluation with K_UA pairs (the rewriting is what makes the
  approach deployable on a stock DBMS; both must agree and stay close in cost).
* **C-table labeling strictness** -- the paper's CNF-tautology-only labeling
  versus the ablation variant that also runs the solver on non-CNF conditions
  (tighter labels, higher labeling cost).
* **Best-guess versus random-guess world** -- labeling quality is unaffected,
  but result utility differs (quantified in Figure 18); here we measure the
  construction cost of both.
"""

from __future__ import annotations

import pytest

from repro.core.bestguess import best_guess_world_xdb, random_guess_world_xdb
from repro.core.labeling import label_ctable
from repro.experiments.pdbench_harness import build_connection
from repro.workloads.ctable_gen import generate_random_ctable
from repro.workloads.pdbench import generate_pdbench
from repro.workloads.tpch_queries import pdbench_query


@pytest.fixture(scope="module")
def ablation_frontend(pdbench_low_uncertainty):
    return build_connection(pdbench_low_uncertainty)


def test_ablation_rewritten_query(benchmark, ablation_frontend):
    benchmark(lambda: ablation_frontend.query(pdbench_query("Q1")))


def test_ablation_direct_ua_evaluation(benchmark, ablation_frontend):
    benchmark(lambda: ablation_frontend.query_direct(pdbench_query("Q1")))


def test_ablation_rewritten_and_direct_agree(benchmark, ablation_frontend):
    def run():
        rewritten = ablation_frontend.query(pdbench_query("Q2"))
        direct = ablation_frontend.query_direct(pdbench_query("Q2"))
        return rewritten, direct

    rewritten, direct = benchmark.pedantic(run, rounds=1, iterations=1)
    assert sorted(rewritten.labeled_rows()) == sorted(direct.labeled_rows())


@pytest.fixture(scope="module")
def ablation_ctable():
    return generate_random_ctable(num_tuples=30, seed=41)


def test_ablation_ctable_labeling_cnf_only(benchmark, ablation_ctable):
    benchmark(lambda: label_ctable(ablation_ctable))


def test_ablation_ctable_labeling_with_solver(benchmark, ablation_ctable):
    benchmark(lambda: label_ctable(ablation_ctable, use_solver_for_non_cnf=True))


@pytest.fixture(scope="module")
def ablation_xdb():
    return generate_pdbench(scale_factor=0.05, uncertainty=0.10, seed=7).xdb


def test_ablation_best_guess_world(benchmark, ablation_xdb):
    benchmark(lambda: best_guess_world_xdb(ablation_xdb))


def test_ablation_random_guess_world(benchmark, ablation_xdb):
    benchmark(lambda: random_guess_world_xdb(ablation_xdb))
