"""The integer LP layer reproduces its Fraction references exactly.

``simplex_min`` must return the same optimum and the same vertex (or
raise the same exception) as the dense Fraction tableau, and
``separation_oracle_holes`` must return the same hole as one Dijkstra per
neighbour pair: which hole comes back decides the cut order and so every
later LP.  The references live in ``reference_lp.py``.
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
from essentia.simplex import Infeasible, Unbounded, simplex_min
from reference_lp import separation_oracle_pairwise, simplex_min_fraction

COEF = st.one_of(
    st.just(0),
    st.integers(-2, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
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
    costs = draw(st.lists(COEF, min_size=nx, max_size=nx))
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
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def check_same(lp_args):
    got = outcome(simplex_min, *lp_args)
    assert got == outcome(simplex_min_fraction, *lp_args)
    if isinstance(got, tuple):
        value, x = got
        assert type(value) is Fraction and all(type(v) is Fraction for v in x)


@given(lps())
@settings(max_examples=500, deadline=None)
# Degenerate optima that leave an artificial basic at level zero, so the
# phase-1 drive-out pivot runs (once with unit, once with rational rows).
@example(([0], [[-1], [2]], [-1, 2]))
@example(([0], [[Fraction(-1, 2)], [Fraction(2, 3)]], [Fraction(-1, 2), Fraction(2, 3)]))
# Duplicate rows, an infeasible one, an unbounded one, zero and negative rhs.
@example(([1, 1], [[1, 1], [1, 1], [2, 2]], [1, 1, 2]))
@example(([1], [[0]], [1]))
@example(([-1, 1], [[1, 0]], [0]))
@example(([1], [[-1], [1]], [-5, 3]))
def test_simplex_matches_fraction_reference(lp_args):
    check_same(lp_args)


@given(covering_lps())
@settings(max_examples=300, deadline=None)
def test_covering_simplex_matches_fraction_reference(lp_args):
    check_same(lp_args)


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
    assert lp.separation_oracle_holes(g, weights) == separation_oracle_pairwise(g, weights)


def test_oracle_reference_finds_holes():
    # The comparison above is only worth something if holes come back.
    rng = random.Random(7)
    hits = 0
    for i in range(240):
        n = rng.randint(4, 10) if i < 200 else rng.randint(12, 24)
        g = random_graph(rng, n, 0.35)
        weights = [rng.choice([Fraction(0), Fraction(1, 4), Fraction(1, 2)]) for _ in range(g.n)]
        hole = lp.separation_oracle_holes(g, weights)
        assert hole == separation_oracle_pairwise(g, weights)
        hits += hole is not None
    assert hits >= 50


@pytest.mark.parametrize("seed", range(30))
def test_avoiding_lp_matches_reference_run(seed, monkeypatch):
    # The whole cutting-plane loop, run on the integer code and on the
    # references, yields the same pool in the same order.
    rng = random.Random(40_000 + seed)
    g = random_graph(rng, rng.randint(5, 9), rng.choice([0.3, 0.45]))
    v = rng.randrange(g.n)
    fast = lp.solve_v_avoiding_lp(g, v)
    monkeypatch.setattr(lp, "simplex_min", simplex_min_fraction)
    monkeypatch.setattr(lp, "separation_oracle_holes", separation_oracle_pairwise)
    assert lp.solve_v_avoiding_lp(g, v) == fast
