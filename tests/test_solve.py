"""Branching solvers and the detection-driven loop vs the oracle."""
from __future__ import annotations

import gc
import random

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_digraph,
    random_graph,
)
from essentia.generate import gnp
from essentia.graphs import Digraph, Graph, delete_vertices
from essentia.oracle import brute_opt, oracle_report
from essentia.problems import PROBLEMS
from essentia.solve import exact_budgeted_solve, meta_solve


def friendship(q: int) -> Graph:
    edges = []
    for i in range(q):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph(1 + 2 * q, edges)


def test_budgeted_named():
    sol, _ = exact_budgeted_solve("fvs", cycle_graph(5), 1)
    assert sol is not None and len(sol) == 1
    sol, _ = exact_budgeted_solve("oct", cycle_graph(5), 0)
    assert sol is None
    sol, _ = exact_budgeted_solve("vc", petersen_graph(), 6)
    assert sol is not None and len(sol) == 6  # brute-force optimum of Petersen
    sol, _ = exact_budgeted_solve("vc", petersen_graph(), 5)
    assert sol is None


def test_budgeted_returns_minimum_not_just_within_budget():
    sol, _ = exact_budgeted_solve("fvs", cycle_graph(5), 4)
    assert sol is not None and len(sol) == 1
    sol, _ = exact_budgeted_solve("vc", Graph(3, []), 2)
    assert sol == []


def test_budgeted_rejects_mismatch():
    with pytest.raises(TypeError):
        exact_budgeted_solve("fvs", Digraph(2, [(0, 1)]), 1)
    with pytest.raises(ValueError):
        exact_budgeted_solve("fvs", cycle_graph(3), -1)


@pytest.mark.parametrize("problem", ["vc", "fvs", "oct", "cvd"])
@pytest.mark.parametrize("seed", range(15))
def test_budgeted_random_undirected(problem, seed):
    rng = random.Random(hash((problem, seed)) & 0xFFFF)
    g = random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]))
    opt, _ = brute_opt(problem, g)
    sol, _ = exact_budgeted_solve(problem, g, opt)
    assert sol is not None and len(sol) == opt
    check_feasible(problem, g, sol)
    if opt > 0:
        none_sol, _ = exact_budgeted_solve(problem, g, opt - 1)
        assert none_sol is None


@pytest.mark.parametrize("problem", ["dfvs", "doct"])
@pytest.mark.parametrize("seed", range(15))
def test_budgeted_random_directed(problem, seed):
    rng = random.Random(hash((problem, seed)) & 0xFFFF)
    d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.25, 0.4]))
    opt, _ = brute_opt(problem, d)
    sol, _ = exact_budgeted_solve(problem, d, opt)
    assert sol is not None and len(sol) == opt
    check_feasible(problem, d, sol)
    if opt > 0:
        none_sol, _ = exact_budgeted_solve(problem, d, opt - 1)
        assert none_sol is None


def check_feasible(problem, g, vertices):
    assert PROBLEMS[problem].in_class(delete_vertices(g, vertices))


def test_meta_named():
    assert len(meta_solve("oct", cycle_graph(5)).solution.vertices) == 1
    res = meta_solve("fvs", friendship(3))
    assert res.solution.vertices == {0}
    # The winning triple spends no leftover budget: the detector did it all.
    winning = [a for a in res.attempts if a.success]
    assert winning[-1].budget == 0
    assert meta_solve("vc", Graph(0, [])).solution.vertices == frozenset()
    assert meta_solve("fvs", path_graph(4)).solution.vertices == frozenset()


@pytest.mark.parametrize("problem", ["vc", "fvs", "oct", "cvd"])
@pytest.mark.parametrize("seed", range(12))
def test_meta_random_undirected(problem, seed):
    rng = random.Random(hash(("meta", problem, seed)) & 0xFFFF)
    n = rng.randint(1, 7)
    g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    opt, _ = brute_opt(problem, g)
    res = meta_solve(problem, g)
    assert len(res.solution.vertices) == opt
    check_feasible(problem, g, res.solution.vertices)


@pytest.mark.parametrize("problem", ["dfvs", "doct"])
@pytest.mark.parametrize("seed", range(12))
def test_meta_random_directed(problem, seed):
    rng = random.Random(hash(("meta", problem, seed)) & 0xFFFF)
    d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.25, 0.4]))
    opt, _ = brute_opt(problem, d)
    res = meta_solve(problem, d)
    assert len(res.solution.vertices) == opt
    check_feasible(problem, d, res.solution.vertices)


def test_meta_budget_bounded_by_nonessentiality():
    # Detector-found essential vertices keep attempted budgets at ell.
    for q in (3, 4):
        g = friendship(q)
        res = meta_solve("fvs", g)
        ell = oracle_report("fvs", g).ell
        assert res.max_budget_attempted <= ell
    g5 = cycle_graph(5)
    res = meta_solve("oct", g5)
    assert res.max_budget_attempted <= oracle_report("oct", g5).ell


def test_nonessentiality_named():
    assert oracle_report("fvs", friendship(3)).ell == 0
    assert oracle_report("oct", cycle_graph(5)).ell == 1
    assert oracle_report("fvs", path_graph(4)).ell == 0


def test_schedule_is_sorted_and_nonnegative():
    res = meta_solve("fvs", complete_graph(5))
    budgets = [t.budget for t in res.schedule]
    assert budgets == sorted(budgets)
    assert all(b >= 0 for b in budgets)


def test_meta_solve_leaves_no_cyclic_garbage():
    # Objects that only the cyclic collector frees pile up between
    # collections; the solver should free everything by reference count.
    graphs = [gnp(12 + s % 2, 0.3, s) for s in range(6)]
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        for g in graphs:
            meta_solve("cvd", g)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not garbage, f"{len(garbage)} cyclic objects, e.g. {garbage[:3]!r}"
