"""Branching solvers and the detection-driven loop vs the oracle."""
from __future__ import annotations

import gc
import importlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    disjoint_union,
    complete_graph,
    cycle_graph,
    load_bench_module,
    path_graph,
    petersen_graph,
    random_digraph,
    random_graph,
)
from essentia import generate
from essentia.detect import detector_factory
from essentia.generate import gnp, planted_ess
from essentia.graphs import Digraph, Graph, delete_vertices, isolate
from essentia.oracle import OracleCaps, brute_opt, feasible, oracle_report
from essentia.problems import (
    PROBLEM_IDS,
    PROBLEMS,
    core_degrees,
    cyclomatic_bound,
)
from essentia.recognize import cycle_rank
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
    rng = random.Random(f"{problem}-{seed}")
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
    rng = random.Random(f"{problem}-{seed}")
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
    rng = random.Random(f"meta-{problem}-{seed}")
    n = rng.randint(1, 7)
    g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    opt, _ = brute_opt(problem, g)
    res = meta_solve(problem, g)
    assert len(res.solution.vertices) == opt
    check_feasible(problem, g, res.solution.vertices)


@pytest.mark.parametrize("problem", ["dfvs", "doct"])
@pytest.mark.parametrize("seed", range(12))
def test_meta_random_directed(problem, seed):
    rng = random.Random(f"meta-{problem}-{seed}")
    d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.25, 0.4]))
    opt, _ = brute_opt(problem, d)
    res = meta_solve(problem, d)
    assert len(res.solution.vertices) == opt
    check_feasible(problem, d, res.solution.vertices)


@pytest.mark.parametrize("problem", PROBLEM_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_shared_memo_changes_no_result(problem, seed):
    # meta_solve shares one structure memo between the attempts on one
    # residual; a memo filled at lower budgets must change no later result.
    rng = random.Random(f"memo-{problem}-{seed}")
    n = rng.randint(8, 11 if problem == "cvd" else 16)
    g = gnp(n, rng.choice([0.15, 0.25, 0.35]), rng.getrandbits(31),
            directed=PROBLEMS[problem].directed)
    first = meta_solve(problem, g)
    memo: dict = {}
    for b in range(len(first.solution.vertices) + 2):
        assert exact_budgeted_solve(problem, g, b, memo) == exact_budgeted_solve(problem, g, b)
    # Nothing a call keeps leaks into the next: attempts and nodes repeat.
    assert meta_solve(problem, g) == first


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


@pytest.mark.parametrize("seed,problem", enumerate(("vc", "fvs", "oct", "dfvs")))
def test_planted_claim_beyond_oracle_scale(seed, problem):
    # n = 726 (vc) or 1,425, far past the brute-force oracle. Every one of
    # the 24 centers carries 29 petals, so it is 2-essential by
    # construction, and each of the 3 background pieces costs one vertex:
    # opt = 27 and ell = 3.
    g = planted_ess(problem, centers=24, background=3, seed=seed)
    degree = [len(g._out[v]) + (len(g._in[v]) if g.directed else 0) for v in range(g.n)]
    centers = {v for v in range(g.n) if degree[v] > 2}
    assert len(centers) == 24
    opt = len(centers) + 3
    assert centers <= detector_factory(problem, g)(opt).vertices  # G2
    res = meta_solve(problem, g)
    assert len(res.solution.vertices) == opt
    assert feasible(problem, g, res.solution.vertices)
    assert res.max_budget_attempted <= 3


def test_nonessentiality_named():
    assert oracle_report("fvs", friendship(3)).ell == 0
    assert oracle_report("oct", cycle_graph(5)).ell == 1
    assert oracle_report("fvs", path_graph(4)).ell == 0


SCHEDULE_CASES = [(p, "gnp") for p in PROBLEM_IDS] + [
    (p, "planted") for p in ("vc", "fvs", "oct", "dfvs")]


@pytest.mark.parametrize("problem,kind", SCHEDULE_CASES)
def test_schedule_is_sorted_and_nonnegative(problem, kind):
    # What meta_solve's upward loop relies on: S_k only shrinks as k grows,
    # so leftovers strictly increase, and the loop attempts each triple it
    # schedules, stopping at its first success.
    if kind == "gnp":
        n = 10 if problem == "cvd" else 16
        g = gnp(n, 0.3, 3, directed=PROBLEMS[problem].directed)
    else:
        g = planted_ess(problem, centers=3, background=2, seed=1)
    detector = detector_factory(problem, g)
    chosen = [detector(k).vertices for k in range(g.n + 1)]
    assert all(later <= earlier for earlier, later in zip(chosen, chosen[1:]))
    res = meta_solve(problem, g)
    budgets = [t.budget for t in res.schedule]
    assert budgets[0] >= 0 and all(a < b for a, b in zip(budgets, budgets[1:]))
    assert all(t.selected == chosen[t.k] for t in res.schedule)
    assert [(t.k, t.budget) for t in res.schedule] == [
        (a.k, a.budget) for a in res.attempts]
    assert [a.success for a in res.attempts] == [False] * (len(budgets) - 1) + [True]


def test_meta_solve_asks_the_detector_only_up_to_the_optimum(monkeypatch):
    # The loop evaluates detector(k) only on reaching k and stops at
    # k = opt, so planted flowers cost opt + 1 closure calls, not n + 1.
    solve = importlib.import_module("essentia.solve")
    calls = []

    def counting_factory(problem, g):
        detector = detector_factory(problem, g)

        def counted(k):
            calls.append(k)
            return detector(k)
        return counted

    monkeypatch.setattr(solve, "detector_factory", counting_factory)
    g = planted_ess("fvs", centers=4, background=3)
    opt = len(solve.meta_solve("fvs", g).solution.vertices)
    assert (g.n, opt) == (85, 7)
    assert len(calls) <= opt + 1


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


def test_benchmark_node_counts_are_pinned(monkeypatch):
    # solve.nodes is the benchmark's work count for the branching solver.
    # A change that is meant to keep every result (a cheaper search, a
    # floor) must keep these totals; one that changes them on purpose
    # updates them here and reports the change.
    workloads = load_bench_module("workloads", monkeypatch)
    totals = {}
    for workload in ("branch-gnp", "planted-ess", "cvd-lp"):
        instances = workloads.base_instances(workload)
        totals[workload] = (len(instances), sum(
            meta_solve(inst.problem, inst.build(generate)).solver_nodes
            for inst in instances))
    assert totals == {
        "branch-gnp": (30, 3460), "planted-ess": (48, 336), "cvd-lp": (24, 307),
    }


def test_only_fvs_has_a_lower_bound():
    assert [p for p in PROBLEM_IDS if PROBLEMS[p].lower_bound] == ["fvs"]


def test_cyclomatic_bound_named():
    # Each of these is tight, so a bound off by one either way fails.
    # Pendant leaves raise 0's degree to 4 but not its 2-core degree, 2.
    leafy = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 6), (0, 7)])
    cases = [
        (path_graph(6), 0), (Graph(3, []), 0), (cycle_graph(7), 1),
        (disjoint_union(*[complete_graph(3)] * 4), 4), (complete_graph(4), 2),
        (petersen_graph(), 3), (friendship(5), 1), (leafy, 2),
    ]
    for g, bound in cases:
        assert cyclomatic_bound(g) == bound == brute_opt("fvs", g)[0]
    assert cyclomatic_bound(complete_graph(5)) == 2  # opt 3: mu 6, drops 3 + 3


@pytest.mark.parametrize("seed", range(40))
def test_cyclomatic_bound_at_most_the_oracle_optimum(seed):
    rng = random.Random(5_200 + seed)
    g = random_graph(rng, rng.randint(1, 14), rng.choice([0.15, 0.25, 0.35, 0.45]))
    assert cyclomatic_bound(g) <= brute_opt("fvs", g, OracleCaps(opt_component=14))[0]


@pytest.mark.parametrize("n,seed", [(n, s) for n in (20, 25, 30, 35) for s in range(3)]
                         + [(40, 1)])
def test_cyclomatic_bound_at_most_the_meta_optimum(n, seed):
    g = gnp(n, 0.15, seed)
    assert cyclomatic_bound(g) <= len(meta_solve("fvs", g).solution.vertices)


@pytest.mark.parametrize("seed", range(30))
def test_two_core_matches_networkx(seed):
    rng = random.Random(5_300 + seed)
    g = random_graph(rng, rng.randint(1, 40), rng.choice([0.03, 0.06, 0.1, 0.2]))
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(g.n))
    core = nx.k_core(G, 2)
    assert {v: d for v, d in enumerate(core_degrees(g)) if d} == dict(core.degree)
    assert cycle_rank(g) == (core.number_of_edges() - core.number_of_nodes()
                             + nx.number_connected_components(core))


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_deleting_a_vertex_lowers_mu_by_at_most_its_degree_minus_one(seed):
    # The step the cyclomatic bound rests on, with 2-core degrees; a
    # vertex off the 2-core lies on no cycle and lowers mu by nothing.
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.05, 0.5))
    mu, deg = cycle_rank(g), core_degrees(g)
    for v in range(g.n):
        assert 0 <= mu - cycle_rank(isolate(g, v)) <= max(deg[v] - 1, 0)
