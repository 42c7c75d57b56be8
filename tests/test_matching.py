"""Matching kernel vs brute force and networkx."""
from __future__ import annotations

import random

import networkx as nx
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_bipartite,
    random_graph,
)
from essentia.graphs import Graph
from essentia.matching import min_vertex_cover_bipartite
from helpers import max_matching


def brute_max_matching(g: Graph) -> int:
    """Exhaustive branch over edges; independent of the blossom code."""
    edges = list(g.edges())

    def go(i: int, used: set[int]) -> int:
        best = 0
        for j in range(i, len(edges)):
            u, v = edges[j]
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                best = max(best, 1 + go(j + 1, used))
                used.remove(u)
                used.remove(v)
        return best

    return go(0, set())


def brute_min_vertex_cover(g: Graph) -> int:
    from itertools import combinations

    edges = list(g.edges())
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            s = set(sub)
            if all(u in s or v in s for u, v in edges):
                return k
    return g.n


def check_valid_matching(g: Graph, matching: set[tuple[int, int]]) -> None:
    seen: set[int] = set()
    for u, v in matching:
        assert g.has_edge(u, v)
        assert u not in seen and v not in seen
        seen.add(u)
        seen.add(v)


def test_named_graphs():
    assert len(max_matching(cycle_graph(4))) == 2
    assert len(max_matching(complete_graph(4))) == 2
    assert len(max_matching(petersen_graph())) == 5
    assert len(max_matching(Graph(3, []))) == 0
    assert len(max_matching(Graph(0, []))) == 0


def test_odd_structures():
    # Two triangles joined by an edge: perfect matching of size 3.
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
    assert len(max_matching(g)) == 3
    assert len(max_matching(cycle_graph(5))) == 2
    assert len(max_matching(cycle_graph(7))) == 3


@pytest.mark.parametrize("seed", range(40))
def test_random_vs_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
    m = max_matching(g)
    check_valid_matching(g, m)
    assert len(m) == brute_max_matching(g)


@pytest.mark.parametrize("seed", range(12))
def test_random_vs_networkx(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(12, 32)
    g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.4]))
    m = max_matching(g)
    check_valid_matching(g, m)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    ref = nx.max_weight_matching(h, maxcardinality=True)
    assert len(m) == len(ref)


def test_koenig_named():
    assert len(min_vertex_cover_bipartite(Graph(2, [(0, 1)]), [0, 1])) == 1
    c6 = cycle_graph(6)
    assert len(min_vertex_cover_bipartite(c6, [0, 1, 0, 1, 0, 1])) == 3
    assert min_vertex_cover_bipartite(Graph(3, []), [0, 0, 0]) == set()


def test_koenig_rejects_improper_coloring():
    with pytest.raises(ValueError):
        min_vertex_cover_bipartite(Graph(2, [(0, 1)]), [0, 0])


@pytest.mark.parametrize("seed", range(30))
def test_koenig_random(seed):
    rng = random.Random(2000 + seed)
    a, b = rng.randint(1, 5), rng.randint(1, 5)
    g, coloring = random_bipartite(rng, a, b, rng.choice([0.3, 0.5, 0.8]))
    cover = min_vertex_cover_bipartite(g, coloring)
    assert all(u in cover or v in cover for u, v in g.edges())
    assert len(cover) == len(max_matching(g))
    assert len(cover) == brute_min_vertex_cover(g)
