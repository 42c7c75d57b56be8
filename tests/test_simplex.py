"""Exact simplex vs scipy on random covering-style LPs."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from essentia.simplex import Infeasible, Tableau, _restore, simplex_min


def rational_min(costs, rows, rhs):
    """simplex_min's (value * D, x * D, D), read as (value, x)."""
    value, x, d = simplex_min(costs, rows, rhs)
    return Fraction(value, d), [Fraction(xu, d) for xu in x]


def test_tiny_known():
    # min x0 + x1 st x0 + x1 >= 1 -> 1
    value, x = rational_min([1, 1], [[1, 1]], [1])
    assert value == 1
    assert sum(x) == 1
    # Two disjoint covering constraints -> 2.
    value, _ = rational_min(
        [1, 1, 1, 1], [[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1]
    )
    assert value == 2
    # Shared variable can cover both rows at once.
    value, x = rational_min([1, 1, 1], [[1, 1, 0], [0, 1, 1]], [1, 1])
    assert value == 1 and x[1] == 1


def test_fractional_optimum():
    # Odd cycle cover LP: three pair constraints on a triangle -> 3/2.
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    value, x = rational_min([1, 1, 1], rows, [1, 1, 1])
    assert value == Fraction(3, 2)
    assert all(v == Fraction(1, 2) for v in x)


def test_no_constraints():
    value, x = rational_min([1, 1], [], [])
    assert value == 0 and x == [0, 0]


def test_infeasible():
    with pytest.raises(Infeasible):
        simplex_min([1], [[0]], [1])


def test_negative_rhs_rows():
    # -x0 >= -5 is just x0 <= 5; objective pulls x0 to 3 via x0 >= 3.
    value, x = rational_min([1], [[-1], [1]], [-5, 3])
    assert value == 3 and x == [3]


@pytest.mark.parametrize("seed", range(60))
def test_random_vs_scipy(seed):
    rng = random.Random(seed)
    nx = rng.randint(1, 6)
    m = rng.randint(1, 8)
    rows = []
    rhs = []
    for _ in range(m):
        row = [rng.choice([0, 0, 1, 1, 2]) for _ in range(nx)]
        if all(v == 0 for v in row):
            row[rng.randrange(nx)] = 1
        rows.append(row)
        rhs.append(rng.choice([1, 1, 1, 2]))
    costs = [rng.choice([1, 1, 1, 2, 3]) for _ in range(nx)]
    value, x = rational_min(costs, rows, rhs)
    # Feasibility of the returned point, exactly.
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * xi for a, xi in zip(row, x)) >= b
    ref = linprog(
        costs,
        A_ub=[[-a for a in row] for row in rows],
        b_ub=[-b for b in rhs],
        bounds=[(0, None)] * nx,
        method="highs",
    )
    assert ref.status == 0
    assert abs(float(value) - ref.fun) < 1e-7


def test_restore_terminates_where_the_most_negative_rule_cycles():
    # Chvatal's cycling example (Linear Programming, ch. 3): max 10x1 -
    # 57x2 - 9x3 - 24x4 over 0.5x1 - 5.5x2 - 2.5x3 + 9x4 <= 0, 0.5x1 -
    # 1.5x2 - 0.5x3 + x4 <= 0, x1 <= 1, whose largest-coefficient primal
    # simplex with smallest-subscript ties cycles through six bases.  The
    # dual simplex on its negated transpose makes those same pivots, so
    # the restore's most-negative rule alone would cycle; the switch to
    # Bland's rule on the repeated basis ends it.  Rows are x1..x4 (basic,
    # columns 1-4), columns 5-7 the slacks, stored fraction-free as
    # 8 * T with D = 8.
    h = Fraction(1, 2)
    rows = [(-10, -h, -h, -1), (57, 11 * h, 3 * h, 0), (9, 5 * h, h, 0), (24, -9, -1, 0)]
    t = [[b] + [int(i == k) for i in range(4)] + list(a) for k, (b, *a) in enumerate(rows)]
    t.append([0, 0, 0, 0, 0, 0, 0, 1])
    tab = [[int(8 * a) for a in row] for row in t]
    basis = [1, 2, 3, 4]
    d = _restore(tab, basis, 8)
    assert all(row[0] >= 0 for row in tab[:4])
    assert min(tab[4][1:]) >= 0
    # The value is minus the primal optimum, 1 (x1 = x3 = 1).
    assert Fraction(tab[4][0], d) == -1
    assert sorted(basis) == [2, 4, 6, 7]


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_simplex_takes_ints_only(bad):
    # The pivots' exact // would silently floor any other number, so a
    # non-int cost, entry, right-hand side or cost shift is refused.
    for costs, rows, rhs in [([1, bad], [[1, 1]], [1]), ([1, 1], [[bad, 1]], [1]),
                             ([1, 1], [[1, 1]], [bad])]:
        with pytest.raises(TypeError):
            simplex_min(costs, rows, rhs)
    with pytest.raises(TypeError):
        Tableau([bad])
    warm = Tableau([1, 1])
    for call in (lambda: warm.add([1, bad], 1), lambda: warm.add([1, 1], bad),
                 lambda: warm.shift(0, bad),
                 lambda: simplex_min([1, 1], [[1, bad]], [1], warm)):
        with pytest.raises(TypeError):
            call()
    # A refused call leaves the tableau as it was.
    assert warm.costs == [1, 1] and warm.added == 0
    assert simplex_min([1, 1], [[1, 1]], [1], warm)[0] == warm.d


def test_simplex_refuses_costs_the_tableau_does_not_hold():
    # A kept tableau solves on its own costs, so other costs passed with
    # it are refused before the tableau is touched.
    warm = Tableau([1, 2])
    assert simplex_min([1, 2], [[1, 1]], [1], warm)[0] == warm.d
    snapshot = ([row[:] for row in warm.tab], warm.basis[:], warm.d, warm.added)
    for costs in ([2, 1], [1, 2, 0], [1]):
        with pytest.raises(ValueError):
            simplex_min(costs, [[1, 1], [1, 0]], [1, 1], warm)
    assert ([row[:] for row in warm.tab], warm.basis[:], warm.d, warm.added) == snapshot
    warm.shift(1, -1)
    value, x, d = simplex_min([1, 1], [[1, 1], [1, 0]], [1, 1], warm)
    assert (Fraction(value, d), [Fraction(xu, d) for xu in x]) == (1, [1, 0])
