"""Fractional hole-covering LPs, solved exactly by lazy constraint
generation, and the essential-vertex detector for chordal deletion.

The LP for a graph G puts a variable x_u in [0, 1] on every vertex and
requires every hole (chordless cycle of length >= 4) to carry total
weight at least one; the avoiding variant additionally pins one vertex
to zero.  Constraints are generated on demand: solve the pooled LP
exactly, ask the separation oracle for a violated hole, add it, repeat.
Each round adds a hole not yet in the pool, so the loop terminates.

One ``PooledLP`` serves every avoiding LP of a graph.  Its
``simplex.Tableau`` holds the dual, a fractional packing of pooled holes
(weight y_h per hole, vertex u loaded at most its cost c_u), so each cut
is a new column and the simplex re-optimises from the last basis.  The
tableau covers every vertex at unit cost, and pins v by raising c_v to
n.  That bound never binds: every hole has at least three vertices other
than v, each loaded at most 1, so a packing totals at most (n - 1) / 3 <
n and loads v less than n.  v's slack stays basic at every optimum, so
x_v = 0 exactly, and the optimum is the pinned LP's; the solve asserts
x_v = 0.  Moving the pin from v to w lowers c_v back to 1 and raises c_w
to n; the next solve restores the basis by dual simplex and the cut loop
goes on from there.  A pooled hole stays a valid cut for every pin.  The
solved state carries the packing as its certificate: its total equals the
cost.

The LP runs on integers from pivot to oracle.  ``simplex_min`` returns x
as integers over the basis determinant, and ``PooledLP.solve`` reduces
them to lowest terms (w, d), x_u = w_u / d.  Bounds x_u <= 1 never bind
at an optimum of a pure covering objective, so the tableau carries only
the covering rows; the unit box and the pin are checked on w and d.  The
oracle takes them as they are and returns the first hole lighter than d
from ``recognize.light_holes``, the hole search that the branching's
``shortest_hole`` runs under unit weights.  It is a pure function of
(G, x), so the pooled LP keeps the (w, d) pairs it has certified and does
not ask again when a later pin lands on one of them.  Fractions are made
once per pinned vertex, for the fields of the returned ``LPState``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .graphs import Graph
from .recognize import light_holes
from .simplex import Tableau, simplex_min


@dataclass(frozen=True)
class LPState:
    """Solved avoiding-LP: exact assignment, the active hole pool, and the
    packing that certifies the cost (one weight per pooled hole)."""

    pinned: int
    cost: Fraction
    assignment: tuple[Fraction, ...]
    pool: tuple[tuple[int, ...], ...]
    packing: tuple[Fraction, ...]


def separation_oracle_holes(
    g: Graph, weights: Sequence[int], total: int
) -> tuple[int, ...] | None:
    """Return a hole of total weight < 1, or None when every hole
    constraint is satisfied, for the assignment x_u = weights[u] / total
    (non-negative integers, total > 0): the first hole that
    ``recognize.light_holes`` yields below total."""
    hole = next(light_holes(g, weights, total), None)
    if hole is not None:
        _assert_hole(g, hole)
    return hole


def _assert_hole(g: Graph, hole: Sequence[int]) -> None:
    k = len(hole)
    if k < 4 or len(set(hole)) != k:
        raise AssertionError(f"not a hole: {hole}")
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(hole[i], hole[j])
            consecutive = j - i == 1 or (i, j) == (0, k - 1)
            if adjacent != consecutive:
                raise AssertionError(f"hole {hole} has a chord or gap")


class PooledLP:
    """One graph's hole-covering LP, kept warm across pinned vertices: a
    dual tableau over every vertex (unit costs but the pinned vertex's),
    the pooled holes with one covering row each, and the assignments the
    separation oracle has certified."""

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.tableau = Tableau([1] * g.n)
        self.pinned: int | None = None
        self.pool: list[tuple[int, ...]] = []
        self.rows: list[list[int]] = []
        self.seen: set[frozenset[int]] = set()
        self.certified: set[tuple[tuple[int, ...], int]] = set()

    def pin(self, v: int) -> None:
        """Move the pin to v: its cost goes to n, the old pin's back to 1."""
        if self.pinned is not None:
            self.tableau.shift(self.pinned, 1 - self.g.n)
        self.tableau.shift(v, self.g.n - 1)
        self.pinned = v

    def add(self, hole: Sequence[int]) -> None:
        key = frozenset(hole)
        if key in self.seen:
            raise AssertionError("separation oracle repeated a pooled hole")
        self.seen.add(key)
        self.pool.append(tuple(hole))
        self.rows.append([int(u in key) for u in range(self.g.n)])

    def solve(self) -> tuple[tuple[int, ...], int]:
        """Re-optimise over the pooled holes; the optimal assignment as
        (w, d) in lowest terms, x_u = w[u] / d."""
        rows = self.rows
        _, x, d = simplex_min(self.tableau.costs, rows, [1] * len(rows), self.tableau)
        common = gcd(d, *x)
        d //= common
        w = tuple([xu // common for xu in x])
        if not all(0 <= wu <= d for wu in w):
            raise AssertionError("assignment escaped the unit box")
        if w[self.pinned]:
            raise AssertionError("the pinned vertex carries weight")
        return w, d


def solve_v_avoiding_lp(
    g: Graph, v: int, pooled: PooledLP | None = None
) -> LPState:
    """Minimize total weight over assignments with x_v = 0 satisfying
    every hole constraint, by cutting planes over one warm exact simplex.

    A pooled LP of g (the detector passes one for all of g's vertices)
    starts from its holes and its last basis; without one, the solve
    starts from a fresh one.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if pooled is None:
        pooled = PooledLP(g)
    elif pooled.g is not g:
        raise ValueError("the pooled LP was built for another graph")
    pooled.pin(v)
    point = pooled.solve()
    while point not in pooled.certified:
        hole = separation_oracle_holes(g, *point)
        if hole is None:
            pooled.certified.add(point)
            break
        pooled.add(hole)
        point = pooled.solve()
    w, d = point
    y, dy = pooled.tableau.dual(), pooled.tableau.d
    _assert_packing(g.n, v, pooled.pool, (y, dy), (sum(w), d))
    return LPState(
        v, Fraction(sum(w), d), tuple([Fraction(wu, d) for wu in w]),
        tuple(pooled.pool), tuple([Fraction(yh, dy) for yh in y]))


def _assert_packing(n: int, v: int, pool, packing, cost) -> None:
    """The packing certifies the cost, both given as (integers,
    denominator): y >= 0, every vertex other than v loaded at most 1, and
    the total equal to the cost."""
    (y, dy), (c, d) = packing, cost
    load = [0] * n
    for hole, yh in zip(pool, y):
        for u in hole if yh else ():
            load[u] += yh
    load[v] = 0
    if min(y, default=0) < 0 or max(load, default=0) > dy or sum(y) * d != c * dy:
        raise AssertionError("packing does not certify the cost")


def lp_dump_text(state: LPState) -> str:
    """Human-readable pooled LP, one constraint per line."""
    lines = [f"min sum x_u  with x_{state.pinned} = 0"]
    for hole, y in zip(state.pool, state.packing):
        lines.append("hole " + " ".join(str(u) for u in hole) + f" >= 1  y = {y}")
    lines.append(f"cost {state.cost}")
    return "\n".join(lines) + "\n"
