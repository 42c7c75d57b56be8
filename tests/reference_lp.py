"""Test-only references for the exact LP layer, in plain Fraction
arithmetic: a dense, cold two-phase Bland simplex on the primal, the
per-pair Dijkstra hole oracle, and the cutting-plane loop over the two.
The integer code in ``essentia.simplex`` and ``essentia.lp`` must
reproduce their outputs exactly: the same optimum (or the same
infeasibility), the same hole, and the same avoiding-LP cost.  Which
optimal vertex comes back may differ, since the integer code solves the
dual from a warm basis.  These stay here as the slow, obviously-correct
statement of that behaviour.  Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

from essentia.graphs import Graph
from essentia.simplex import Infeasible


class Unbounded(ValueError):
    pass


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for r, tr in enumerate(tableau):
        if r != row and tr[col]:
            f = tr[col]
            base = tableau[row]
            tableau[r] = [a - f * b for a, b in zip(tr, base)]
    basis[row] = col


def _optimize(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: Sequence[Fraction],
    allowed: int,
) -> None:
    """Run Bland pivots to optimality; columns >= allowed never enter."""
    m = len(tableau)
    width = len(tableau[0]) - 1
    while True:
        lam = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(min(allowed, width)):
            red = cost[j] - sum(lam[i] * tableau[i][j] for i in range(m) if tableau[i][j])
            if red < 0:
                entering = j
                break
        if entering < 0:
            return
        leave = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise Unbounded("no leaving row for entering column")
        _pivot(tableau, basis, leave, entering)


def simplex_min_fraction(
    costs: Sequence,
    rows: Sequence[Sequence],
    rhs: Sequence,
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs . x subject to rows[i] . x >= rhs[i] and x >= 0."""
    nx = len(costs)
    m = len(rows)
    c = [Fraction(v) for v in costs]
    if m == 0:
        if any(v < 0 for v in c):
            raise Unbounded("negative cost with no constraints")
        return Fraction(0), [Fraction(0)] * nx

    n_art = sum(1 for b in rhs if Fraction(b) > 0)
    width = nx + m + n_art
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = nx + m
    for i, (row, b) in enumerate(zip(rows, rhs)):
        b = Fraction(b)
        line = [Fraction(v) for v in row] + [Fraction(0)] * (m + n_art) + [b]
        line[nx + i] = Fraction(-1)
        if b > 0:
            line[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        else:
            line = [-v for v in line[:-1]] + [-b]
            basis.append(nx + i)
        tableau.append(line)

    if n_art:
        cost1 = [Fraction(0)] * (nx + m) + [Fraction(1)] * n_art
        _optimize(tableau, basis, cost1, allowed=width)
        value1 = sum(
            cost1[basis[i]] * tableau[i][-1] for i in range(len(tableau))
        )
        if value1 != 0:
            raise Infeasible("phase 1 ended with positive artificial mass")
        i = 0
        while i < len(tableau):
            if basis[i] >= nx + m:
                col = next(
                    (j for j in range(nx + m) if tableau[i][j] != 0), None
                )
                if col is None:
                    del tableau[i]
                    del basis[i]
                    continue
                _pivot(tableau, basis, i, col)
            i += 1

    cost2 = c + [Fraction(0)] * (width - nx)
    _optimize(tableau, basis, cost2, allowed=nx + m)
    x = [Fraction(0)] * nx
    for i, bv in enumerate(basis):
        if bv < nx:
            x[bv] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x


def _dijkstra_min_weight_path(
    g: Graph, weights: Sequence[Fraction], allowed: frozenset[int], p: int, q: int
) -> tuple[Fraction, list[int]] | None:
    """Minimum vertex-weight p..q path within allowed vertices; the weight
    counts both endpoints, and ties prefer fewer hops, then smaller ids
    (the heap order)."""
    dist: dict[int, tuple[Fraction, int]] = {p: (weights[p], 0)}
    prev: dict[int, int] = {p: -1}
    heap = [(weights[p], 0, p)]
    done: set[int] = set()
    while heap:
        d, hops, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        if x == q:
            path = []
            while x != -1:
                path.append(x)
                x = prev[x]
            path.reverse()
            return d, path
        for y in g.neighbors(x):
            if y not in allowed or y in done:
                continue
            cand = (d + weights[y], hops + 1)
            if y not in dist or cand < dist[y]:
                dist[y] = cand
                prev[y] = x
                heapq.heappush(heap, (cand[0], cand[1], y))
    return None


def separation_oracle_pairwise(
    g: Graph, weights: Sequence[Fraction]
) -> tuple[int, ...] | None:
    """First hole of weight < 1 in (center, p, q) order, one Dijkstra per
    non-adjacent neighbour pair p < q of each center."""
    one = Fraction(1)
    for u in range(g.n):
        nbrs = g.neighbors(u)
        base = frozenset(range(g.n)) - set(nbrs) - {u}
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                p, q = nbrs[i], nbrs[j]
                if g.has_edge(p, q):
                    continue
                found = _dijkstra_min_weight_path(
                    g, weights, base | {p, q}, p, q
                )
                if found is None:
                    continue
                w, path = found
                if w + weights[u] < one:
                    return tuple([u] + path)
    return None


def avoiding_lp_cost_reference(g: Graph, v: int) -> Fraction:
    """Cost of the v-avoiding hole-covering LP: cold re-solves of the
    pooled primal, one oracle cut at a time, until no hole is light."""
    variables = [u for u in range(g.n) if u != v]
    rows: list[list[int]] = []
    x = [Fraction(0)] * g.n
    while (hole := separation_oracle_pairwise(g, x)) is not None:
        rows.append([int(u in hole) for u in variables])
        _, sol = simplex_min_fraction([1] * len(variables), rows, [1] * len(rows))
        for u, value in zip(variables, sol):
            x[u] = value
    return sum(x, Fraction(0))
