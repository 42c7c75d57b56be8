"""Exact linear programming over rationals, on integers.

Dense two-phase tableau simplex with Bland's anti-cycling rule: the
entering column is the smallest index with negative reduced cost, the
leaving row breaks ratio ties by smallest basic variable index.

The tableau is fraction-free (Edmonds; Bareiss).  Each constraint row is
scaled to integers on entry, and the rational tableau T is stored as the
integer matrix M = D * T, where D > 0 is the absolute determinant of the
current basis of the scaled constraint matrix (the product of the row
scales at the start).  A pivot on p = M[r][c] keeps row r and maps every
other row i to (p * M[i] - M[i][c] * M[r]) / D, a division that is
always exact by Cramer's rule; D becomes |p|, with all rows negated when
p < 0.  The reduced-cost row is kept the same way.  Signs of T entries
are signs of M entries, and ratios compare by cross-multiplication, so
every pivot is the one the rational tableau would make.  Fractions are
built only for the returned optimum, which is exact.  Problem sizes here
are tiny (tens of rows), so the dense tableau is the simple, right-sized
choice.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence


class Unbounded(ValueError):
    pass


class Infeasible(ValueError):
    pass


def _integers(values: Sequence) -> tuple[list[int], int]:
    """(integers, scale) with integers[j] == scale * values[j], scale >= 1
    the least common denominator."""
    fr = [v if isinstance(v, int) else Fraction(v) for v in values]
    scale = lcm(*[f.denominator for f in fr])
    return [f.numerator * (scale // f.denominator) for f in fr], scale


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


def _optimize(tab: list[list[int]], basis: list[int], allowed: int, d: int) -> int:
    """Run Bland pivots to optimality on the rows of tab, whose last row
    holds the reduced costs; columns >= allowed never enter.  Returns D."""
    m = len(basis)
    while True:
        z = tab[m]
        entering = next((j for j in range(allowed) if z[j] < 0), -1)
        if entering < 0:
            return d
        leave = -1
        for i in range(m):
            coef = tab[i][entering]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][entering]
                rhs = tab[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise Unbounded("no leaving row for entering column")
        d = _pivot(tab, leave, entering, d)
        basis[leave] = entering


def _reduced_costs(
    tab: list[list[int]], basis: list[int], cost: Sequence[int], d: int
) -> list[int]:
    """D * (cost - cost_B . T) for integer costs, as one more tableau row."""
    z = [d * cj for cj in cost] + [0]
    for i, bv in enumerate(basis):
        cb = cost[bv]
        if cb:
            z = [a - cb * b for a, b in zip(z, tab[i])]
    return z


def simplex_min(
    costs: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs . x subject to rows[i] . x >= rhs[i] and x >= 0.

    Entries may be ints, Fractions or anything Fraction() accepts.
    Returns (optimal value, optimal x).  Raises Infeasible or Unbounded.
    """
    nx = len(costs)
    m = len(rows)
    c, c_scale = _integers(costs)
    if m == 0:
        if any(v < 0 for v in c):
            raise Unbounded("negative cost with no constraints")
        return Fraction(0), [Fraction(0)] * nx

    # Standard form: row . x - s = b, with the row negated when b < 0 so
    # every right-hand side is non-negative; artificials where the
    # surplus cannot start basic.  Row i is scaled by s_i to integers, so
    # the starting basis is diag(s_i) and M = D * T needs row i times
    # D / s_i.
    scaled = [_integers([*row, b]) for row, b in zip(rows, rhs)]
    n_art = sum(1 for line, _ in scaled if line[-1] > 0)
    width = nx + m + n_art
    d = prod(s for _, s in scaled)
    tab: list[list[int]] = []
    basis: list[int] = []
    art_col = nx + m
    for i, (line, s) in enumerate(scaled):
        b = line.pop()
        line += [0] * (m + n_art) + [b]
        line[nx + i] = -s
        if b > 0:
            line[art_col] = s
            basis.append(art_col)
            art_col += 1
        else:
            line = [-v for v in line]
            basis.append(nx + i)
        if d != s:
            line = [(d // s) * v for v in line]
        tab.append(line)

    if n_art:
        tab.append(_reduced_costs(tab, basis, [0] * (nx + m) + [1] * n_art, d))
        d = _optimize(tab, basis, width, d)
        tab.pop()
        if any(tab[i][-1] for i in range(len(basis)) if basis[i] >= nx + m):
            raise Infeasible("phase 1 ended with positive artificial mass")
        # Drive leftover artificials (at level zero) out of the basis.  The
        # surplus columns give [rows | -I] full row rank, so no tableau row
        # vanishes on the non-artificial columns and no row is redundant.
        for i in range(len(basis)):
            if basis[i] >= nx + m:
                col = next((j for j in range(nx + m) if tab[i][j]), None)
                if col is None:
                    raise AssertionError("tableau row vanished off the artificials")
                d = _pivot(tab, i, col, d)
                basis[i] = col

    tab.append(_reduced_costs(tab, basis, c + [0] * (width - nx), d))
    d = _optimize(tab, basis, nx + m, d)
    x = [Fraction(0)] * nx
    for i, bv in enumerate(basis):
        if bv < nx:
            x[bv] = Fraction(tab[i][-1], d)
    num = sum(c[bv] * tab[i][-1] for i, bv in enumerate(basis) if bv < nx)
    return Fraction(num, d * c_scale), x
