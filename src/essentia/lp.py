"""Fractional hole-covering LPs, solved exactly by lazy constraint
generation, and the essential-vertex detector for chordal deletion.

The LP for a graph G puts a variable x_u in [0, 1] on every vertex and
requires every hole (chordless cycle of length >= 4) to carry total
weight at least one; the avoiding variant additionally pins one vertex
to zero.  Constraints are generated on demand: solve the pooled LP
exactly, ask the separation oracle for a violated hole, add it, repeat.
Each round adds a hole not yet in the pool, so the loop terminates.

One ``simplex.Tableau`` serves a whole avoiding LP.  It holds the dual,
a fractional packing of pooled holes (weight y_h per hole, every vertex
u != v loaded at most 1), so each cut is a new column and the simplex
re-optimises from the last basis.  The solved state carries that packing
as its certificate: its total equals the cost.  The oracle scales the
current assignment to integers with ``simplex.integers``, as the tableau
does on entry, and takes the first hole lighter than one from
``recognize.light_holes``, the hole search that the branching's
``shortest_hole`` runs under unit weights.

Upper bounds x_u <= 1 never bind at an optimum of a pure covering
objective, so the simplex tableau only carries the covering rows; the
returned assignment is checked to stay within the box.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import Graph
from .recognize import light_holes
from .simplex import Tableau, integers, simplex_min

ZERO = Fraction(0)
ONE = Fraction(1)


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
    g: Graph, weights: Sequence[Fraction]
) -> tuple[int, ...] | None:
    """Return a hole of total weight < 1, or None when every hole
    constraint is satisfied.  Weights are non-negative rationals.

    The weights are scaled to integers over their common denominator L,
    so "weight < 1" is "sum < L", and the first hole that
    ``recognize.light_holes`` yields below L is returned.
    """
    w, scale = integers(weights)
    hole = next(light_holes(g, w, scale), None)
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


def solve_v_avoiding_lp(
    g: Graph, v: int, pool: Sequence[Sequence[int]] = ()
) -> LPState:
    """Minimize total weight over assignments with x_v = 0 satisfying
    every hole constraint, by cutting planes over one warm exact simplex.

    An optional starting pool warms up the constraint set (the detector
    reuses pools across vertices to cut down oracle rounds).
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    variables = [u for u in range(g.n) if u != v]
    costs = [1] * len(variables)
    tableau = Tableau(costs)
    active: list[tuple[int, ...]] = []
    rows: list[list[int]] = []
    seen: set[frozenset[int]] = set()
    x = [ZERO] * g.n

    def add_constraint(hole: Sequence[int]) -> None:
        key = frozenset(hole)
        if key in seen:
            raise AssertionError("separation oracle repeated a pooled hole")
        seen.add(key)
        active.append(tuple(hole))
        rows.append([int(u in key) for u in variables])

    def resolve() -> None:
        _, sol = simplex_min(costs, rows, [1] * len(rows), tableau)
        for u, value in zip(variables, sol):
            if not (ZERO <= value <= ONE):
                raise AssertionError("assignment escaped the unit box")
            x[u] = value

    for hole in pool:
        if frozenset(hole) not in seen:
            add_constraint(hole)
    if active:
        resolve()

    while (hole := separation_oracle_holes(g, x)) is not None:
        add_constraint(hole)
        resolve()
    cost = sum(x, ZERO)
    packing = tuple(tableau.dual())
    _assert_packing(g.n, v, active, packing, cost)
    return LPState(v, cost, tuple(x), tuple(active), packing)


def _assert_packing(n: int, v: int, pool, packing, cost: Fraction) -> None:
    """The packing certifies the cost: y >= 0, every vertex other than v
    loaded at most 1, and the total equal to the cost (in integers over
    the weights' common denominator L)."""
    w, scale = integers(packing)
    load = [0] * n
    for hole, wy in zip(pool, w):
        for u in hole if wy else ():
            load[u] += wy
    load[v] = 0
    if min(w, default=0) < 0 or max(load, default=0) > scale \
            or Fraction(sum(w), scale) != cost:
        raise AssertionError("packing does not certify the cost")


def lp_dump_text(state: LPState) -> str:
    """Human-readable pooled LP, one constraint per line."""
    lines = [f"min sum x_u  with x_{state.pinned} = 0"]
    for hole, y in zip(state.pool, state.packing):
        lines.append("hole " + " ".join(str(u) for u in hole) + f" >= 1  y = {y}")
    lines.append(f"cost {state.cost}")
    return "\n".join(lines) + "\n"
