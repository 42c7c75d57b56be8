"""Instance generators: G(n, p), planted flowers, and planted suites
where most of the optimum is essential.

planted_flower builds q forbidden structures pairwise sharing one
center vertex (the friendship-style families).  planted_ess composes
several such centers with a small background, so the optimum is large
while only the background part of it is avoidable; sizes follow the
rule petals >= centers + background + 2, which makes every center
essential at coefficient 2.  planted_size counts either model's vertices
without building it, so a caller can refuse one that is too large.
"""
from __future__ import annotations

import random

from .graphs import Digraph, Graph
from .problems import PROBLEMS


def gnp(n: int, p: float, seed: int, directed: bool = False) -> Graph | Digraph:
    if n < 0 or not (0 <= p <= 1):
        raise ValueError("need n >= 0 and p in [0, 1]")
    rng = random.Random(seed)
    if directed:
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < p
        ]
        return Digraph(n, arcs)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


# problem -> (fresh vertices per petal of a planted flower, vertices per
# background piece).  A petal is an edge to a leaf for vc, else a cycle
# through the center: a triangle, or a 4-hole for cvd; a background piece
# is an edge for vc, else a triangle.
_SIZES = {"vc": (1, 2), "fvs": (2, 3), "oct": (2, 3), "dfvs": (2, 3), "doct": (2, 3),
          "cvd": (3, 3)}


def planted_size(problem: str, petals: int | None, centers: int = 1, background: int = 0) -> int:
    """The vertex count of planted_ess(problem, centers, petals,
    background), without building it; petals=None is its default.  With
    the defaults for centers and background it is that of
    planted_flower(problem, petals)."""
    if problem not in _SIZES:
        raise ValueError(f"unknown problem {problem!r}")
    petal, piece = _SIZES[problem]
    if petals is None:
        petals = centers + background + 2
    return centers * (1 + petal * petals) + piece * background


def _flower_edges(center: int, petal: int, petals: int) -> list[tuple[int, int]]:
    """Edges/arcs of a flower at center whose petals take petal fresh ids
    each from center + 1 on: a path from center through a petal's ids,
    closed back to center when there are two or more."""
    fresh = range(center + 1, center + 1 + petal * petals)
    pairs = [(center, a) for a in fresh[::petal]]
    pairs += [(x, x + 1) for x in fresh if (x - center) % petal]  # x is not a petal's last
    if petal > 1:
        pairs += [(b, center) for b in fresh[petal - 1::petal]]
    return pairs


def planted_flower(problem: str, petals: int) -> Graph | Digraph:
    """One center with the given number of petals (vertex 0)."""
    if petals < 0:
        raise ValueError("petals must be non-negative")
    n = planted_size(problem, petals)
    pairs = _flower_edges(0, _SIZES[problem][0], petals)
    return Digraph(n, pairs) if PROBLEMS[problem].directed else Graph(n, pairs)


def planted_ess(
    problem: str,
    centers: int = 4,
    petals: int | None = None,
    background: int = 2,
    seed: int = 0,
) -> Graph | Digraph:
    """Several flowers plus an avoidable background, ids shuffled.

    With petals >= centers + background + 2 every center must appear in
    any solution within twice the optimum, while each background piece
    contributes one freely-choosable solution vertex.
    """
    if problem in ("doct", "cvd"):
        raise ValueError(
            f"planted essential suites for {problem} would need instances "
            "beyond brute-force oracle scale"
        )
    if centers < 1 or background < 0:
        raise ValueError("need centers >= 1 and background >= 0")
    if petals is None:
        petals = centers + background + 2
    if petals < 0:
        raise ValueError("petals must be non-negative")
    n = planted_size(problem, petals, centers, background)
    petal, piece = _SIZES[problem]
    flower = 1 + petal * petals
    pairs = []
    for center in range(0, centers * flower, flower):
        pairs += _flower_edges(center, petal, petals)
    for a in range(centers * flower, n, piece):  # a piece is a one-petal flower at a
        pairs += _flower_edges(a, piece - 1, 1)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in pairs]
    return Digraph(n, pairs) if PROBLEMS[problem].directed else Graph(n, pairs)
