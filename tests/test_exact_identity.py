"""The integer LP layer reproduces its Fraction references exactly.

The LPs are drawn with rational data; each is scaled to integers (each
row with its right-hand side, and the costs) for ``simplex_min``, and its
results, integers over D, are read back on the unscaled LP.
``simplex_min`` must return the same optimum (or raise ``Infeasible``
where the dense Fraction tableau does), with an exactly feasible x and an
exact dual certificate y, cold and when the rows arrive one at a time on
one tableau.  It may return another optimal vertex than the reference.
``separation_oracle_holes`` must return the same hole as one Dijkstra per
neighbour pair, and an avoiding LP the same cost as the reference's
cutting-plane loop.  The references live in ``reference_lp.py``.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import essentia.lp as lp
from conftest import random_graph
from essentia.graphs import Graph
from essentia.simplex import Infeasible, Tableau, simplex_min
from helpers import integers
from reference_lp import (
    avoiding_lp_cost_reference,
    separation_oracle_pairwise,
    simplex_min_fraction,
)

COEF = st.one_of(
    st.just(0),
    st.integers(-2, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
COST = st.one_of(
    st.just(0),
    st.integers(0, 3),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
)


@st.composite
def lps(draw):
    """Rational LPs with zero and negative right-hand sides, plus rows that
    are combinations of earlier ones (with the matching right-hand side)."""
    nx = draw(st.integers(0, 5))
    m = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(COEF, min_size=nx, max_size=nx),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(COEF, min_size=m, max_size=m))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            a = draw(st.integers(0, len(rows) - 1))
            b = draw(st.integers(0, len(rows) - 1))
            f = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
            rows.append([x + f * y for x, y in zip(rows[a], rows[b])])
            rhs.append(rhs[a] + f * rhs[b])
    costs = draw(st.lists(COST, min_size=nx, max_size=nx))
    return costs, rows, rhs


@st.composite
def covering_lps(draw):
    """The detector's shape: 0/1 rows, unit costs and right-hand sides."""
    nx = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=nx, max_size=nx),
                         min_size=0, max_size=12))
    return [1] * nx, rows, [1] * len(rows)


def outcome(fn, costs, rows, rhs):
    try:
        return fn(costs, rows, rhs)
    except Infeasible:
        return Infeasible


def assert_certified(costs, rows, rhs, value, x, y):
    """x is feasible, y is dual feasible, and their values meet: both are
    exactly optimal."""
    assert type(value) is Fraction and all(type(v) is Fraction for v in x + y)
    assert len(x) == len(costs) and len(y) == len(rows)
    assert min(x + y, default=0) >= 0
    for row, b in zip(rows, rhs):
        assert sum(a * xi for a, xi in zip(row, x)) >= b
    for j, c in enumerate(costs):
        assert sum(row[j] * yi for row, yi in zip(rows, y)) <= c
    assert sum(c * xi for c, xi in zip(costs, x)) == value
    assert sum(b * yi for b, yi in zip(rhs, y)) == value


def rational(result, cost_scale):
    """(value, x) from simplex_min's (value * D, x * D, D) on costs scaled
    by cost_scale."""
    value, x, d = result
    assert all(type(a) is int for a in [value, *x, d]) and d > 0
    return Fraction(value, d * cost_scale), [Fraction(xu, d) for xu in x]


def rational_dual(tableau, row_scales, cost_scale):
    """y from tableau.dual(), y' * D on rows scaled by row_scales and
    costs scaled by cost_scale."""
    y = tableau.dual()
    assert all(type(a) is int for a in y)
    return [Fraction(s * yi, tableau.d * cost_scale) for s, yi in zip(row_scales, y)]


def check_certified(lp_args):
    costs, rows, rhs = lp_args
    icosts, cost_scale = integers(costs)
    lines = [integers([*row, b]) for row, b in zip(rows, rhs)]
    irows = [line[:-1] for line, _ in lines]
    irhs = [line[-1] for line, _ in lines]
    row_scales = [s for _, s in lines]
    if any(c < 0 for c in costs):
        # The dual's slack basis needs costs >= 0; no caller passes others.
        with pytest.raises(ValueError) as err:
            simplex_min(icosts, irows, irhs)
        assert type(err.value) is ValueError
        return
    ref = outcome(simplex_min_fraction, costs, rows, rhs)
    cold = Tableau(icosts)
    got = outcome(lambda *args: simplex_min(*args, cold), icosts, irows, irhs)
    if ref is Infeasible:
        assert got is Infeasible
    else:
        value, x = rational(got, cost_scale)
        assert value == ref[0]
        y = rational_dual(cold, row_scales, cost_scale)
        assert_certified(costs, rows, rhs, value, x, y)
    # The same rows, one cut at a time on one tableau.
    warm = Tableau(icosts)
    for k in range(len(rows) + 1):
        try:
            value, x = rational(simplex_min(icosts, irows[:k], irhs[:k], warm), cost_scale)
        except Infeasible:
            assert ref is Infeasible
            return
        y = rational_dual(warm, row_scales, cost_scale)
        assert_certified(costs, rows[:k], rhs[:k], value, x, y)
    assert ref is not Infeasible and value == ref[0]


@given(lps())
@settings(max_examples=500, deadline=None)
# Degenerate optima at zero cost with a tight row pair (once with unit,
# once with rational rows).
@example(([0], [[-1], [2]], [-1, 2]))
@example(([0], [[Fraction(-1, 2)], [Fraction(2, 3)]], [Fraction(-1, 2), Fraction(2, 3)]))
# Duplicate rows, an infeasible one, a negative cost, zero and negative rhs.
@example(([1, 1], [[1, 1], [1, 1], [2, 2]], [1, 1, 2]))
@example(([1], [[0]], [1]))
@example(([-1, 1], [[1, 0]], [0]))
@example(([1], [[-1], [1]], [-5, 3]))
def test_simplex_matches_fraction_reference(lp_args):
    check_certified(lp_args)


@given(covering_lps())
@settings(max_examples=300, deadline=None)
def test_covering_simplex_matches_fraction_reference(lp_args):
    check_certified(lp_args)


@st.composite
def repriced_covering_lps(draw):
    """Covering LPs drawn from a few distinct 0/1 rows, so equal rows and
    degenerate bases are common, and steps that each set one or two costs
    to new non-negative values and may append more rows."""
    nx = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, 1), min_size=nx, max_size=nx).filter(any)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    costs = draw(st.lists(COST, min_size=nx, max_size=nx))
    change = st.tuples(st.integers(0, nx - 1), COST)
    steps = draw(st.lists(
        st.tuples(st.lists(change, min_size=1, max_size=2), st.integers(0, 2)),
        min_size=1, max_size=6))
    return costs, rows, steps


@given(repriced_covering_lps())
@settings(max_examples=300, deadline=None)
# A pin move: unit costs, one vertex raised to n and moved to the next.
@example(([1, 1, 1, 1], [[1, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0], [1, 1, 1, 1]],
          [([(0, 4)], 0), ([(0, 1), (1, 4)], 1), ([(1, 1), (2, 4)], 0)]))
def test_shifted_costs_match_fraction_reference(case):
    # Each step shifts costs on a solved tableau; the dual simplex restore
    # (and the primal cuts after it) must reach the cold optimum on the
    # new costs, with both certificates exact.
    # One scale serves every cost the steps set, so each shift is an int.
    costs, rows, steps = case
    costs = list(costs)
    new_costs = [cost for changes, _ in steps for _, cost in changes]
    scaled, scale = integers([*costs, *new_costs])
    icosts, new_icosts = scaled[:len(costs)], iter(scaled[len(costs):])
    rhs = [1] * len(rows)
    warm = Tableau(icosts)
    k = 1
    simplex_min(icosts, rows[:k], rhs[:k], warm)
    for changes, more in steps:
        for u, cost in changes:
            icost = next(new_icosts)
            warm.shift(u, icost - icosts[u])
            costs[u], icosts[u] = cost, icost
        assert warm.costs == icosts
        k = min(len(rows), k + more)
        value, x = rational(simplex_min(icosts, rows[:k], rhs[:k], warm), scale)
        assert value == simplex_min_fraction(costs, rows[:k], rhs[:k])[0]
        y = rational_dual(warm, [1] * k, scale)
        assert_certified(costs, rows[:k], rhs[:k], value, x, y)


def test_shift_rejects_negative_costs():
    warm = Tableau([1, 2])
    with pytest.raises(ValueError):
        warm.shift(1, -3)
    assert warm.costs == [1, 2]


@pytest.mark.parametrize("costs", [[-1], [1, Fraction(-1, 2)], [0, -3, 2]])
def test_simplex_rejects_negative_costs(costs):
    with pytest.raises(ValueError) as err:
        simplex_min(integers(costs)[0], [[1] * len(costs)], [1])
    assert type(err.value) is ValueError


@st.composite
def weighted_graphs(draw):
    """Random graphs with non-negative rational weights drawn from a small
    pool, so that zero weights and equal-weight paths are common."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pool = draw(st.lists(
        st.fractions(min_value=0, max_value=Fraction(3, 2), max_denominator=4),
        min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), weights


@given(weighted_graphs())
@settings(max_examples=500, deadline=None)
def test_oracle_matches_pairwise_reference(case):
    g, weights = case
    hole = lp.separation_oracle_holes(g, *integers(weights))
    assert hole == separation_oracle_pairwise(g, weights)


def test_oracle_reference_finds_holes():
    # The comparison above is only worth something if holes come back.
    rng = random.Random(7)
    hits = 0
    for i in range(240):
        n = rng.randint(4, 10) if i < 200 else rng.randint(12, 24)
        g = random_graph(rng, n, 0.35)
        weights = [rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)]) for _ in range(g.n)]
        hole = lp.separation_oracle_holes(g, *integers(weights))
        assert hole == separation_oracle_pairwise(g, weights)
        hits += hole is not None
    assert hits >= 50


@pytest.mark.parametrize("seed", range(30))
def test_avoiding_lp_matches_reference_run(seed):
    # The whole cutting-plane loop, run on the warm integer code and as
    # cold Fraction re-solves with the pairwise oracle, yields the same cost.
    rng = random.Random(40_000 + seed)
    g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.45]))
    v = rng.randrange(g.n)
    assert lp.solve_v_avoiding_lp(g, v).cost == avoiding_lp_cost_reference(g, v)
