"""T-path packings vs exhaustive enumeration and vs the normalizing
reference tail, and the bipartite duality."""
from __future__ import annotations

import random

import networkx as nx
import pytest

from conftest import cycle_graph, path_graph, random_bipartite, random_graph
from essentia import tpaths
from essentia.generate import gnp
from essentia.graphs import Graph
from essentia.recognize import is_bipartite
from essentia.tpaths import max_T_path_packing, max_odd_T_path_packing
from helpers import min_odd_T_path_cover_bipartite
from reference_tpaths import reference_pack


def all_t_paths(g: Graph, T: set[int], odd=False) -> list[tuple[int, ...]]:
    """Every T-path as a vertex tuple (canonical direction)."""
    out = []

    def extend(path: list[int]) -> None:
        last = path[-1]
        for w in g.neighbors(last):
            if w in path:
                continue
            path.append(w)
            if w in T:
                if (not odd or len(path) % 2 == 0) and path[0] < w:
                    out.append(tuple(path))
            else:
                extend(path)
            path.pop()

    for t in sorted(T):
        extend([t])
    return out


def brute_max_packing(g: Graph, T: set[int], odd=False) -> int:
    paths = all_t_paths(g, T, odd)
    sets = [frozenset(p) for p in paths]

    def go(i: int, used: frozenset[int]) -> int:
        best = 0
        for j in range(i, len(sets)):
            if not (sets[j] & used):
                best = max(best, 1 + go(j + 1, used | sets[j]))
        return best

    return go(0, frozenset())


def brute_min_hitting(g: Graph, T: set[int], odd=False) -> int:
    from itertools import combinations

    paths = [frozenset(p) for p in all_t_paths(g, T, odd)]
    for k in range(g.n + 1):
        for sub in combinations(range(g.n), k):
            s = set(sub)
            if all(p & s for p in paths):
                return k
    return g.n


def check_packing(g: Graph, T: set[int], packing, odd=False) -> None:
    used: set[int] = set()
    for p in packing:
        assert p[0] in T and p[-1] in T and len(p) >= 2
        assert len(set(p)) == len(p)
        assert not (set(p) & used)
        used |= set(p)
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)
        if odd:
            assert (len(p) - 1) % 2 == 1


def test_gallai_named():
    g = path_graph(3)
    pk = max_T_path_packing(g, {0, 2})
    assert len(pk) == 1
    # Star: the center is a cut vertex, so only one leaf pair connects.
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    pk = max_T_path_packing(star, {1, 2, 3, 4})
    assert len(pk) == 1
    # Friendship graph with 3 triangles at 0: three disjoint T-paths in G - 0.
    fr = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)])
    g0 = Graph(6, [(0, 1), (2, 3), (4, 5)])
    pk = max_T_path_packing(g0, {0, 1, 2, 3, 4, 5})
    assert len(pk) == 3
    assert fr.n == 7  # friendship graph reused in detector tests
    assert len(max_T_path_packing(Graph(3, []), {0, 1})) == 0
    assert len(max_T_path_packing(path_graph(3), set())) == 0


def test_odd_named():
    edge = Graph(2, [(0, 1)])
    assert len(max_odd_T_path_packing(edge, {0, 1})) == 1
    c4 = cycle_graph(4)
    pk = max_odd_T_path_packing(c4, {0, 1})
    assert len(pk) == 1
    check_packing(c4, {0, 1}, pk, odd=True)
    assert len(max_odd_T_path_packing(c4, {0, 2})) == 0


@pytest.mark.parametrize("seed", range(120))
def test_gallai_random_vs_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
    T = {v for v in range(n) if rng.random() < 0.45}
    pk = max_T_path_packing(g, T)
    check_packing(g, T, pk)
    assert len(pk) == brute_max_packing(g, T)


@pytest.mark.parametrize("seed", range(120))
def test_odd_random_vs_brute(seed):
    rng = random.Random(10_000 + seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, rng.choice([0.25, 0.4, 0.6]))
    T = {v for v in range(n) if rng.random() < 0.45}
    pk = max_odd_T_path_packing(g, T)
    check_packing(g, T, pk, odd=True)
    assert len(pk) == brute_max_packing(g, T, odd=True)


@pytest.mark.parametrize("n", [5, 9, 15, 25, 45])
@pytest.mark.parametrize("p", [0.1, 0.2, 0.35])
def test_packing_matches_normalized_reference(monkeypatch, n, p):
    # Beyond brute-force reach: the same paths, in the same order and
    # direction, as the reference reads off the same auxiliary graph.
    calls = []
    real_pack = tpaths._pack

    def recording_pack(*args, **kwargs):
        result = real_pack(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(tpaths, "_pack", recording_pack)
    rng = random.Random(n * 1000 + int(p * 100))
    for seed in range(3):
        g = gnp(n, p, seed)
        for q in (0.2, 0.45, 0.7):
            T = {v for v in range(n) if rng.random() < q}
            check_packing(g, T, max_T_path_packing(g, T))
            check_packing(g, T, max_odd_T_path_packing(g, T), odd=True)
    assert len(calls) == 18
    for (g, terminals), kwargs, result in calls:
        T, odd = frozenset(terminals), kwargs["odd"]
        adj = tpaths._aux_graph(g, T, odd)
        # Vertex v owns the slots 2v and 2v + 1; each non-terminal with
        # an edge pairs them.
        pairs = [(2 * v, 2 * v + 1) for v in range(g.n) if v not in T and g.degree(v)]
        back = [x >> 1 for x in range(2 * g.n)]
        assert result == reference_pack(T, adj, pairs, back, odd)


def networkx_packing_number(g: Graph, T: set[int], odd: bool) -> int:
    """The packing number read off a networkx maximum matching of the
    auxiliary graph, built here on labelled vertices: ("v", v) for every
    vertex and ("c", v) for the copy of each non-terminal with an edge.
    Odd packing joins originals to originals and copies to copies;
    Gallai's any-parity packing joins each of u's vertices to each of w's."""
    copied = {v for v in range(g.n) if v not in T and g.degree(v)}
    h = nx.Graph()
    h.add_edges_from((("v", v), ("c", v)) for v in copied)
    for u, w in g.edges():
        for a in ["v", "c"] if u in copied else ["v"]:
            for b in ["v", "c"] if w in copied else ["v"]:
                if a == b or not odd:
                    h.add_edge((a, u), (b, w))
    return len(nx.max_weight_matching(h, maxcardinality=True)) - len(copied)


@pytest.mark.parametrize("n", [20, 30, 40, 50, 60])
@pytest.mark.parametrize("p", [0.1, 0.2, 0.35])
def test_packing_sizes_match_networkx(n, p):
    # Beyond brute-force reach: sizes against another matcher on an
    # auxiliary graph with another vertex numbering.
    rng = random.Random(n * 100 + int(p * 100))
    for seed in range(2):
        g = gnp(n, p, seed)
        for q in (0.1, 0.3, 0.6):
            T = {v for v in range(n) if rng.random() < q}
            for odd, packer in ((False, max_T_path_packing), (True, max_odd_T_path_packing)):
                pk = packer(g, T)
                check_packing(g, T, pk, odd=odd)
                assert len(pk) == networkx_packing_number(g, T, odd), (seed, sorted(T), odd)


def test_cover_named():
    edge = Graph(2, [(0, 1)])
    assert len(min_odd_T_path_cover_bipartite(edge, {0, 1})) == 1
    p4 = path_graph(4)
    s = min_odd_T_path_cover_bipartite(p4, {0, 3})
    assert len(s) == 1
    assert min_odd_T_path_cover_bipartite(p4, set()) == set()


def test_cover_rejects_nonbipartite():
    with pytest.raises(ValueError):
        min_odd_T_path_cover_bipartite(cycle_graph(3), {0})


@pytest.mark.parametrize("seed", range(100))
def test_cover_random_duality(seed):
    rng = random.Random(20_000 + seed)
    if seed % 2:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        g, _ = random_bipartite(rng, a, b, rng.choice([0.3, 0.6]))
    else:
        g = random_graph(rng, rng.randint(1, 8), 0.3)
        if not is_bipartite(g)[0]:
            return
    T = {v for v in range(g.n) if rng.random() < 0.5}
    s = min_odd_T_path_cover_bipartite(g, T)
    count = len(max_odd_T_path_packing(g, T))
    # Duality on bipartite inputs: cover size == packing number == brute.
    assert len(s) == count == brute_min_hitting(g, T, odd=True)
    # And the cover really hits every odd T-path.
    for p in all_t_paths(g, T, odd=True):
        assert set(p) & s
