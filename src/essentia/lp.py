"""Fractional hole-covering LPs, solved exactly by lazy constraint
generation, and the essential-vertex detector for chordal deletion.

The LP for a graph G puts a variable x_u in [0, 1] on every vertex and
requires every hole (chordless cycle of length >= 4) to carry total
weight at least one; the avoiding variant additionally pins one vertex
to zero.  Constraints are generated on demand: solve the pooled LP
exactly, ask the separation oracle for a violated hole, add it, repeat.
Each round adds a hole not yet in the pool, so the loop terminates.

The simplex works on an integer tableau (see ``simplex``) and hands back
exact Fractions.  The oracle scales the current assignment to integers
over its common denominator and runs one Dijkstra per (center, neighbour)
with the center's later non-adjacent neighbours as sinks, which finds the
same hole as one search per neighbour pair.

Upper bounds x_u <= 1 never bind at an optimum of a pure covering
objective, so the simplex tableau only carries the covering rows; the
returned assignment is checked to stay within the box.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graphs import Graph
from .simplex import simplex_min

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPState:
    """Solved avoiding-LP: exact assignment plus the active hole pool."""

    pinned: int
    cost: Fraction
    assignment: tuple[Fraction, ...]
    pool: tuple[tuple[int, ...], ...]


def _paths_to_sinks(
    adj: Sequence[Sequence[int]],
    w: Sequence[int],
    mark: bytearray,
    p: int,
    limit: int,
) -> dict[int, int]:
    """Dijkstra from p over vertex weights w (both endpoints counted) on
    vertices with mark 0; vertices with mark 2 are sinks, reached but never
    expanded, and vertices with mark 1 are never entered.  Ties prefer
    fewer hops, then smaller ids (the heap order), so every tree path has
    no chords.  Paths of weight >= limit are dropped, which changes no
    path lighter than limit.  Returns the predecessor map (p maps to -1)."""
    dist: dict[int, tuple[int, int]] = {p: (w[p], 0)}
    prev: dict[int, int] = {p: -1}
    heap = [(w[p], 0, p)]
    done: set[int] = set()
    while heap:
        d, hops, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y in adj[x]:
            kind = mark[y]
            if kind == 1 or y in done:
                continue
            cand = (d + w[y], hops + 1)
            if cand[0] >= limit:
                continue
            if y not in dist or cand < dist[y]:
                dist[y] = cand
                prev[y] = x
                if kind == 0:
                    heapq.heappush(heap, (cand[0], cand[1], y))
    return prev


def separation_oracle_holes(
    g: Graph, weights: Sequence[Fraction]
) -> tuple[int, ...] | None:
    """Return a hole of total weight < 1, or None when every hole
    constraint is satisfied.  Weights are non-negative rationals.

    For each center u and each non-adjacent pair p, q in N(u), a
    minimum-weight p..q path in G - (N[u] - {p, q}) plus u is a chordless
    cycle, and every hole is seen this way from each of its vertices as
    the center.  The weights are scaled to integers over their common
    denominator L, so "weight < 1" is "sum < L".  One Dijkstra per
    (u, p) serves every later non-adjacent neighbour q of u at once, as a
    sink; since sinks are never expanded, each q gets the path a search
    for q alone would find.  The first violated (u, p, q) in that order
    gives the hole.
    """
    scale = lcm(*[x.denominator for x in weights])
    w = [x.numerator * (scale // x.denominator) for x in weights]
    adj = g.adjacency
    mark = bytearray(g.n)  # 1: in N[u], never entered; 2: a sink
    for u in range(g.n):
        nbrs = adj[u]
        limit = scale - w[u]  # a p..q path lighter than this closes a hole
        mark[u] = 1
        for y in nbrs:
            mark[y] = 1
        for i, p in enumerate(nbrs):
            sinks = [q for q in nbrs[i + 1:] if not g.has_edge(p, q)]
            if not sinks or w[p] >= limit:
                continue
            for q in sinks:
                mark[q] = 2
            prev = _paths_to_sinks(adj, w, mark, p, limit)
            for q in sinks:
                mark[q] = 1
            for q in sinks:
                if q in prev:
                    path = []
                    x = q
                    while x != -1:
                        path.append(x)
                        x = prev[x]
                    hole = (u, *reversed(path))
                    _assert_hole(g, hole)
                    return hole
        mark[u] = 0
        for y in nbrs:
            mark[y] = 0
    return None


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
    every hole constraint, by cutting planes over an exact simplex.

    An optional starting pool warms up the constraint set (the detector
    reuses pools across vertices to cut down oracle rounds).
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    variables = [u for u in range(g.n) if u != v]
    col = {u: i for i, u in enumerate(variables)}
    active: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    x = [ZERO] * g.n

    def add_constraint(hole: Sequence[int]) -> None:
        key = frozenset(hole)
        if key in seen:
            raise AssertionError("separation oracle repeated a pooled hole")
        seen.add(key)
        active.append(tuple(hole))

    def resolve() -> None:
        rows = []
        for hole in active:
            row = [0] * len(variables)
            for u in hole:
                if u != v:
                    row[col[u]] = 1
            rows.append(row)
        _, sol = simplex_min([1] * len(variables), rows, [1] * len(active))
        for u, value in zip(variables, sol):
            if not (ZERO <= value <= ONE):
                raise AssertionError("assignment escaped the unit box")
            x[u] = value

    for hole in pool:
        if frozenset(hole) not in seen:
            add_constraint(hole)
    if active:
        resolve()

    while True:
        hole = separation_oracle_holes(g, x)
        if hole is None:
            break
        add_constraint(hole)
        resolve()
    cost = sum(x, ZERO)
    return LPState(v, cost, tuple(x), tuple(active))


def lp_dump_text(state: LPState) -> str:
    """Human-readable pooled LP, one constraint per line."""
    lines = [f"min sum x_u  with x_{state.pinned} = 0"]
    for hole in state.pool:
        lines.append("hole " + " ".join(str(u) for u in hole) + " >= 1")
    lines.append(f"cost {state.cost}")
    return "\n".join(lines) + "\n"
