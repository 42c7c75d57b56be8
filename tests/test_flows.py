"""Menger kernel vs brute-force minimum separators."""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import pytest

from conftest import random_digraph, random_graph
from essentia.flows import SeparatorUndefined, min_vertex_separator
from essentia.graphs import Digraph


def reachable(d: Digraph, s: int, removed: set[int]) -> set[int]:
    if s in removed:
        return set()
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in d.successors(u):
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def brute_min_separator(d: Digraph, s: int, t: int) -> int:
    others = [v for v in range(d.n) if v not in (s, t)]
    for k in range(len(others) + 1):
        for sub in combinations(others, k):
            if t not in reachable(d, s, set(sub)):
                return k
    raise AssertionError("arc (s,t) present")


def test_directed_path():
    d = Digraph(3, [(0, 1), (1, 2)])
    res = min_vertex_separator(d, 0, 2)
    assert res.separator == frozenset({1})
    assert res.paths == ((0, 1, 2),)


def test_two_disjoint_paths():
    d = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    res = min_vertex_separator(d, 0, 3)
    assert res.size == 2
    assert len(res.paths) == 2


def test_no_path_at_all():
    d = Digraph(3, [(1, 0), (2, 1)])
    res = min_vertex_separator(d, 0, 2)
    assert res.size == 0
    assert res.paths == ()


def test_direct_arc_rejected():
    with pytest.raises(SeparatorUndefined):
        min_vertex_separator(Digraph(2, [(0, 1)]), 0, 1)


@pytest.mark.parametrize("seed", range(120))
def test_random_vs_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    d = random_digraph(rng, n, rng.choice([0.2, 0.35, 0.5]))
    s, t = rng.sample(range(n), 2)
    if d.has_arc(s, t):
        with pytest.raises(SeparatorUndefined):
            min_vertex_separator(d, s, t)
        return
    res = min_vertex_separator(d, s, t)
    # Menger equality + internal-disjointness + disconnection are checked
    # at construction; here compare against exhaustive search.
    assert res.size == brute_min_separator(d, s, t)


@pytest.mark.parametrize("seed", range(40))
def test_undirected_variant(seed):
    rng = random.Random(4000 + seed)
    n = rng.randint(2, 8)
    g = random_graph(rng, n, 0.35)
    s, t = rng.sample(range(n), 2)
    # Each undirected edge becomes two antiparallel arcs.
    arcs = [(u, v) for u, v in g.edges()] + [(v, u) for u, v in g.edges()]
    d = Digraph(g.n, arcs)
    if g.has_edge(s, t):
        with pytest.raises(SeparatorUndefined):
            min_vertex_separator(d, s, t)
        return
    res = min_vertex_separator(d, s, t)
    assert res.size == brute_min_separator(d, s, t)
