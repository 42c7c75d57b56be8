"""Exact linear programming on integers.

``simplex_min`` minimizes c . x subject to A x >= b, x >= 0, for integer
data and costs c >= 0, by the primal simplex on its dual, max b . y
subject to A^T y <= c, y >= 0.  The slack basis y = 0 is feasible, so
there is no phase 1; the dual is unbounded (the primal infeasible) or
optimal, and then x is read off the slacks' reduced costs and b . y =
c . x certifies it.  The tableau has a row per primal variable and a
column per constraint, so a caller that keeps its ``Tableau`` appends
each cut as a column and re-optimises from the last basis; a cold solve
starts from no columns.  Pivots follow Bland's rule: the entering column
is the smallest index with negative reduced cost, the leaving row breaks
ratio ties by smallest basic variable index.

A kept tableau can also change its costs.  The costs are the dual's
right-hand sides, so ``Tableau.shift`` moves column 0 by delta times the
cost's slack column (B^-1 e_u) and the objective by delta times x_u; the
reduced costs stay non-negative, and the next ``simplex_min`` restores a
feasible column 0 by dual simplex before it adds cuts.  Each restore
pivot leaves on the row with the most negative right-hand side and
enters the column of least ratio z_j / -a_j, ties to the smaller index;
once a basis repeats within one restore, the leaving row becomes the
negative one with the smallest basic variable (Bland's rule for the dual
simplex), which cannot cycle.

The tableau is fraction-free (Edmonds; Bareiss): the rational tableau T
is stored as M = D * T, where D > 0 is the absolute determinant of the
current basis.  A pivot on p = M[r][c] keeps row r and maps every other
row i to (p * M[i] - M[i][c] * M[r]) / D, a division that is always
exact by Cramer's rule; D becomes |p|, with all rows negated when p < 0.
The slack columns of M hold D * B^-1, so a new column is those columns
applied to its constraint.  Signs and ratios of T entries are read off M
by cross-multiplication, so every pivot is the one the rational tableau
would make.  Results come back in the same form, integers over D: the
value and x from ``simplex_min``, y from ``Tableau.dual``.  Costs,
constraints and cost shifts must be ints (TypeError otherwise), since
the pivot's exact ``//`` would floor anything else; a caller with
rational data scales it first.  Problems here are tiny (tens of rows),
so the dense tableau is the right-sized choice.
"""
from __future__ import annotations

from typing import Sequence


class Infeasible(ValueError):
    pass


def _require_ints(values: Sequence) -> None:
    if not all(isinstance(a, int) for a in values):
        raise TypeError("costs, constraints and cost shifts must be ints")


def _pivot(tab: list[list[int]], row: int, col: int, d: int) -> int:
    """Pivot every row of tab on tab[row][col]; return the new D."""
    base = tab[row]
    p = base[col]
    if p < 0:
        base = tab[row] = [-a for a in base]
        p = -p
    for i, tr in enumerate(tab):
        if i == row:
            continue
        f = tr[col]
        if f:
            tab[i] = [(p * a - f * b) // d for a, b in zip(tr, base)]
        elif p != d:
            tab[i] = [p * a // d for a in tr]
    return p


def _optimize(tab: list[list[int]], basis: list[int], d: int) -> int:
    """Run Bland pivots to optimality on the rows of tab, whose column 0
    holds the right-hand sides and whose last row holds the reduced
    costs.  Returns D."""
    m = len(basis)
    while True:
        z = tab[m]
        entering = next((j for j in range(1, len(z)) if z[j] < 0), -1)
        if entering < 0:
            return d
        leave = -1
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][0] * tab[leave][entering]
                rhs = tab[leave][0] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise Infeasible("the dual is unbounded")
        d = _pivot(tab, leave, entering, d)
        basis[leave] = entering


def _restore(tab: list[list[int]], basis: list[int], d: int) -> int:
    """Run dual simplex pivots on a tableau whose reduced costs are
    non-negative until column 0 is too.  Returns D."""
    m = len(basis)
    z = tab[m]
    seen = {frozenset(basis)}
    bland = False
    while True:
        negative = [i for i in range(m) if tab[i][0] < 0]
        if not negative:
            return d
        key = (lambda i: basis[i]) if bland else (lambda i: tab[i][0])
        leave = min(negative, key=key)
        tr = tab[leave]
        entering = -1
        for j in range(1, len(tr)):
            if tr[j] < 0 and (entering < 0 or z[j] * tr[entering] > z[entering] * tr[j]):
                entering = j
        if entering < 0:
            raise AssertionError("the dual lost its feasible point y = 0")
        d = _pivot(tab, leave, entering, d)
        z = tab[m]
        basis[leave] = entering
        bases = len(seen)
        seen.add(frozenset(basis))
        bland = bland or len(seen) == bases


class Tableau:
    """The dual tableau of min c . x, A x >= b, x >= 0, kept between
    solves.  Column 0 holds the right-hand sides, columns 1..nx the slacks
    of A^T y <= c, then one column per constraint in the order added; the
    last row holds the reduced costs.  ``costs`` holds the current costs,
    ``added`` counts the constraints.  After ``Infeasible`` it is spent."""

    def __init__(self, costs: Sequence[int]) -> None:
        _require_ints(costs)
        if any(c < 0 for c in costs):
            raise ValueError("costs must be non-negative")
        self.costs = list(costs)
        nx = len(costs)
        self.tab = [[c] + [0] * u + [1] + [0] * (nx - u - 1) for u, c in enumerate(costs)]
        self.tab.append([0] * (nx + 1))
        self.basis = list(range(1, nx + 1))
        self.d = 1
        self.added = 0

    def add(self, row: Sequence[int], b: int) -> None:
        """Append the constraint row . x >= b as a column."""
        _require_ints([*row, b])
        a = [(u + 1, au) for u, au in enumerate(row) if au]
        for tr in self.tab:
            tr.append(sum(tr[j] * au for j, au in a))
        self.tab[-1][-1] -= self.d * b
        self.added += 1

    def shift(self, u: int, delta: int) -> None:
        """Add delta to cost u, keeping it non-negative (ValueError
        otherwise).  Column 0 of every row, the reduced costs' included,
        moves by delta times u's slack column; the next ``simplex_min``
        restores the basis by dual simplex."""
        _require_ints([delta])
        cost = self.costs[u] + delta
        if cost < 0:
            raise ValueError("costs must be non-negative")
        for tr in self.tab:
            tr[0] += delta * tr[u + 1]
        self.costs[u] = cost

    def dual(self) -> list[int]:
        """y * D per constraint, in the order added."""
        nx = len(self.basis)
        y = [0] * self.added
        for i, bv in enumerate(self.basis):
            if bv > nx:
                y[bv - nx - 1] = self.tab[i][0]
        return y


def simplex_min(
    costs: Sequence[int],
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    tableau: Tableau | None = None,
) -> tuple[int, list[int], int]:
    """Minimize costs . x subject to rows[i] . x >= rhs[i] and x >= 0,
    for int entries (TypeError otherwise) and costs >= 0 (ValueError
    otherwise).  A tableau given holds these costs (ValueError otherwise)
    and the first ``tableau.added`` rows; its basis is restored after any
    ``shift``, the other rows are appended, and the solve goes on.
    Returns (value * D, x * D, D) at an optimum, D > 0 the basis
    determinant; ``tableau.dual()`` then gives y * D.  Raises Infeasible.
    """
    if tableau is None:
        tableau = Tableau(costs)
    elif list(costs) != tableau.costs:
        raise ValueError("costs differ from the tableau's costs")
    tableau.d = _restore(tableau.tab, tableau.basis, tableau.d)
    for i in range(tableau.added, len(rows)):
        tableau.add(rows[i], rhs[i])
    tableau.d = d = _optimize(tableau.tab, tableau.basis, tableau.d)
    z = tableau.tab[-1]  # x_u * D is slack u's reduced cost
    return z[0], z[1:len(tableau.basis) + 1], d
