"""Separation oracle and the lazy-constraint LP vs the explicit LP."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from scipy.optimize import linprog

from conftest import cycle_graph, path_graph, random_graph
from essentia.detect import _cvd_scores, detect
from essentia.generate import gnp, planted_flower
from essentia.graphs import Graph
from essentia.lp import (
    PooledLP,
    lp_dump_text,
    separation_oracle_holes,
    solve_v_avoiding_lp,
)
from essentia.simplex import simplex_min
from helpers import integers
from reference_lp import avoiding_lp_cost_reference

ZERO, ONE, HALF = Fraction(0), Fraction(1), Fraction(1, 2)


def all_holes(g: Graph) -> list[frozenset[int]]:
    """Every chordless cycle of length >= 4, as a vertex set (a subset
    inducing a connected 2-regular graph is an induced cycle)."""
    holes = []
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            inside = set(sub)
            if any(
                sum(1 for w in g.neighbors(v) if w in inside) != 2 for v in sub
            ):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                x = stack.pop()
                for w in g.neighbors(x):
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                holes.append(frozenset(sub))
    return holes


def explicit_lp_rows(g: Graph, v: int) -> list[list[int]]:
    """One 0/1 covering row per hole, over the vertices other than v."""
    variables = [u for u in range(g.n) if u != v]
    col = {u: i for i, u in enumerate(variables)}
    rows = []
    for hole in all_holes(g):
        row = [0] * len(variables)
        for u in hole:
            if u != v:
                row[col[u]] = 1
        rows.append(row)
    return rows


def explicit_lp_cost(g: Graph, v: int) -> Fraction:
    rows = explicit_lp_rows(g, v)
    value, _, d = simplex_min([1] * (g.n - 1), rows, [1] * len(rows))
    return Fraction(value, d)


def test_oracle_all_ones_feasible():
    rng = random.Random(1)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        assert separation_oracle_holes(g, *integers([ONE] * g.n)) is None


def test_oracle_c4_zero_violated():
    hole = separation_oracle_holes(cycle_graph(4), *integers([ZERO] * 4))
    assert hole is not None and sorted(hole) == [0, 1, 2, 3]


def test_oracle_c5_boundary_point():
    # The lone hole of C5 sums to exactly one: feasible.
    x = [HALF, HALF, ZERO, ZERO, ZERO]
    assert separation_oracle_holes(cycle_graph(5), *integers(x)) is None
    # Dropping one half makes it violated.
    x = [HALF, ZERO, ZERO, ZERO, ZERO]
    assert separation_oracle_holes(cycle_graph(5), *integers(x)) is not None


def test_avoiding_lp_named():
    chordal = path_graph(5)
    state = solve_v_avoiding_lp(chordal, 2)
    assert state.cost == 0 and all(v == 0 for v in state.assignment)
    state = solve_v_avoiding_lp(cycle_graph(4), 0)
    assert state.cost == 1
    # Two disjoint 4-cycles plus an isolated pinned vertex.
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    state = solve_v_avoiding_lp(g, 8)
    assert state.cost == 2


def test_avoiding_lp_pins_vertex():
    state = solve_v_avoiding_lp(cycle_graph(4), 1)
    assert state.assignment[1] == 0
    assert state.packing == (1,)
    assert lp_dump_text(state) == (
        "min sum x_u  with x_1 = 0\nhole 0 1 2 3 >= 1  y = 1\ncost 1\n")


@pytest.mark.parametrize("seed", range(120))
def test_lazy_equals_explicit(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
    for v in range(n):
        state = solve_v_avoiding_lp(g, v)
        assert state.cost == explicit_lp_cost(g, v)  # exact rational equality
        # Full oracle sweep over the final assignment.
        assert separation_oracle_holes(g, *integers(state.assignment)) is None
        assert state.assignment[v] == 0
        # Cost lower-bounds any integral avoiding modulator: every hole
        # holds at least a unit, spread over its pooled constraints.
        for hole in state.pool:
            assert sum(state.assignment[u] for u in hole) >= 1


@pytest.mark.parametrize("seed", range(120))
def test_lp_cost_matches_highs(seed):
    # An independent float solver on the explicit all-holes LP, for the
    # graphs above; the reference uses neither the exact simplex nor the
    # separation oracle.
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    g = random_graph(rng, n, rng.choice([0.35, 0.5, 0.65]))
    for v in range(n):
        rows = explicit_lp_rows(g, v)
        ref = linprog(
            [1] * (n - 1),
            A_ub=[[-a for a in row] for row in rows] or None,
            b_ub=[-1] * len(rows) or None,
            bounds=[(0, 1)] * (n - 1),
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(solve_v_avoiding_lp(g, v).cost) - ref.fun) < 1e-7
        assert abs(float(explicit_lp_cost(g, v)) - ref.fun) < 1e-7


def hole_flower(q: int) -> Graph:
    """q chordless 4-cycles pairwise sharing only vertex 0."""
    edges = []
    for i in range(q):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, a), (a, b), (b, c), (c, 0)]
    return Graph(1 + 3 * q, edges)


def test_detect_cvd_named():
    assert detect("cvd", cycle_graph(4), 1).vertices == frozenset()
    assert detect("cvd", path_graph(5), 0).vertices == frozenset()
    g = hole_flower(3)
    res = detect("cvd", g, 2)
    assert 0 in res.vertices
    # Petal vertices are avoidable: their LPs route around them.
    assert res.vertices == {0}


def test_detect_cvd_contract_small():
    rng = random.Random(99)
    from essentia.oracle import brute_opt, verify_detection

    for _ in range(15):
        g = random_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
        opt, _ = brute_opt("cvd", g)
        for k in {max(0, opt - 1), opt, opt + 1}:
            res = detect("cvd", g, k)
            ok, msg = verify_detection("cvd", g, k, res.vertices, c=13)
            assert ok, msg


@pytest.mark.parametrize("seed", range(40))
def test_lp_cost_lower_bounds_integral_avoiding(seed):
    from itertools import combinations

    from essentia.graphs import delete_vertices
    from essentia.recognize import is_chordal

    rng = random.Random(90_000 + seed)
    g = random_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
    v = rng.randrange(g.n)
    state = solve_v_avoiding_lp(g, v)
    others = [u for u in range(g.n) if u != v]
    best = None
    for k in range(len(others) + 1):
        for sub in combinations(others, k):
            if is_chordal(delete_vertices(g, sub))[0]:
                best = k
                break
        if best is not None:
            break
    assert state.cost <= best
    if is_chordal(delete_vertices(g, [v]))[0]:
        # Bounded gap when everything off v is already chordal.
        assert best <= 12 * state.cost or best == 0


@pytest.mark.parametrize("seed", range(20))
def test_cvd_factory_pool_reuse_matches_fresh(seed):
    # The detector runs all pinned LPs on one pooled LP; its selections
    # must match fresh solves exactly.
    from essentia.detect import detector_factory

    rng = random.Random(123_000 + seed)
    g = random_graph(rng, rng.randint(4, 7), rng.choice([0.4, 0.6]))
    factory = detector_factory("cvd", g)
    for k in range(g.n):
        chosen = factory(k).vertices
        fresh = {v for v in range(g.n) if solve_v_avoiding_lp(g, v).cost > k}
        assert chosen == fresh


def test_warm_pins_match_cold_solves():
    # One pooled LP moves its pin across every vertex; each cost must be
    # the one a fresh solve (and, at small n, the Fraction reference's
    # cold re-solves) gives for that vertex alone.
    for seed in range(30):
        rng = random.Random(70_000 + seed)
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.45]))
        costs = [cost for cost, _ in _cvd_scores(g)]
        assert costs == [avoiding_lp_cost_reference(g, v) for v in range(g.n)]
    for n in range(18, 23):
        g = gnp(n, 0.3, 0)
        costs = [cost for cost, _ in _cvd_scores(g)]
        assert costs == [solve_v_avoiding_lp(g, v).cost for v in range(n)]


def test_pooled_lp_belongs_to_its_graph():
    pooled = PooledLP(cycle_graph(4))
    assert solve_v_avoiding_lp(pooled.g, 0, pooled).cost == 1
    with pytest.raises(ValueError):
        solve_v_avoiding_lp(cycle_graph(4), 1, pooled)


def assert_lp_certified(g: Graph, state) -> None:
    """The packing is a dual certificate for the cost, the oracle finds no
    light hole, and HiGHS agrees on the final pooled rows."""
    v = state.pinned
    assert len(state.packing) == len(state.pool)
    assert min(state.packing, default=ZERO) >= 0
    load = [ZERO] * g.n
    for hole, y in zip(state.pool, state.packing):
        for u in hole:
            load[u] += y
    assert all(load[u] <= 1 for u in range(g.n) if u != v)
    assert sum(state.packing, ZERO) == state.cost == sum(state.assignment, ZERO)
    assert state.assignment[v] == 0
    assert separation_oracle_holes(g, *integers(state.assignment)) is None
    variables = [u for u in range(g.n) if u != v]
    rows = [[int(u in hole) for u in variables] for hole in state.pool]
    ref = linprog(
        [1] * len(variables),
        A_ub=[[-a for a in row] for row in rows] or None,
        b_ub=[-1] * len(rows) or None,
        bounds=[(0, 1)] * len(variables),
        method="highs",
    )
    assert ref.status == 0
    assert abs(float(state.cost) - ref.fun) < 1e-7


def test_lp_certified_beyond_oracle_scale():
    # gnp(20-24, 0.3): the detector's carried pool at n = 20, cold solves
    # for two pinned vertices above; then a 13-petal hole flower (n = 40),
    # whose center costs one unit per petal and every other vertex one.
    g = gnp(20, 0.3, 20)
    for _, state in _cvd_scores(g):
        assert_lp_certified(g, state)
    for n in range(21, 25):
        g = gnp(n, 0.3, n)
        for v in (0, n - 1):
            assert_lp_certified(g, solve_v_avoiding_lp(g, v))
    g = planted_flower("cvd", 13)
    scores = _cvd_scores(g)
    for _, state in scores:
        assert_lp_certified(g, state)
    assert [cost for cost, _ in scores] == [13] + [1] * 39
