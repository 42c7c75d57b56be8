"""Instance generators: G(n, p), planted flowers, and planted suites
where most of the optimum is essential.

planted_flower builds q forbidden structures pairwise sharing one
center vertex (the friendship-style families).  planted_ess composes
several such centers with a small background, so the optimum is large
while only the background part of it is avoidable; sizes follow the
rule petals >= centers + background + 2, which makes every center
essential at coefficient 2.
"""
from __future__ import annotations

import random

from .graphs import Digraph, Graph


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


def _flower_edges(problem: str, center: int, start: int, petals: int):
    """Edges/arcs of a flower at center using fresh ids from start on;
    returns (pairs, next_free_id)."""
    pairs = []
    nxt = start
    if problem == "vc":
        for _ in range(petals):
            pairs.append((center, nxt))
            nxt += 1
    elif problem in ("fvs", "oct"):
        for _ in range(petals):
            a, b = nxt, nxt + 1
            pairs += [(center, a), (a, b), (b, center)]
            nxt += 2
    elif problem in ("dfvs", "doct"):
        for _ in range(petals):
            a, b = nxt, nxt + 1
            pairs += [(center, a), (a, b), (b, center)]
            nxt += 2
    elif problem == "cvd":
        for _ in range(petals):
            a, b, c = nxt, nxt + 1, nxt + 2
            pairs += [(center, a), (a, b), (b, c), (c, center)]
            nxt += 3
    else:
        raise ValueError(f"unknown problem {problem!r}")
    return pairs, nxt


def planted_flower(problem: str, petals: int) -> Graph | Digraph:
    """One center with the given number of petals (vertex 0)."""
    if petals < 0:
        raise ValueError("petals must be non-negative")
    pairs, n = _flower_edges(problem, 0, 1, petals)
    directed = problem in ("dfvs", "doct")
    return Digraph(n, pairs) if directed else Graph(n, pairs)


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
    pairs = []
    nxt = 0
    for _ in range(centers):
        center = nxt
        nxt += 1
        flower, nxt = _flower_edges(problem, center, nxt, petals)
        pairs += flower
    for _ in range(background):
        if problem == "vc":
            pairs.append((nxt, nxt + 1))
            nxt += 2
        else:
            a, b, c = nxt, nxt + 1, nxt + 2
            pairs += [(a, b), (b, c), (c, a)]
            nxt += 3
    rng = random.Random(seed)
    perm = list(range(nxt))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in pairs]
    directed = problem in ("dfvs", "doct")
    return Digraph(nxt, pairs) if directed else Graph(nxt, pairs)
