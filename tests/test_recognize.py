"""Recognizers vs brute force on exhaustive small corpora."""
from __future__ import annotations

import math
import random
from itertools import combinations

import networkx as nx
import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_digraph,
    random_graph,
)
from essentia.generate import gnp
from essentia.graphs import Digraph, Graph, delete_vertices, isolate
from essentia.problems import PROBLEMS
from essentia.recognize import (
    is_acyclic_directed,
    is_acyclic_undirected,
    is_bipartite,
    is_chordal,
    is_odd_dicycle_free,
    shortest_cycle,
    shortest_dicycle,
    shortest_hole,
    shortest_odd_cycle,
    shortest_odd_dicycle,
)
from reference_cycle import reference_shortest_cycle, reference_shortest_odd_cycle


def assert_cycle(g: Graph, cycle, odd=False, min_len=3):
    assert len(cycle) >= min_len
    assert len(set(cycle)) == len(cycle)
    if odd:
        assert len(cycle) % 2 == 1
    for i, u in enumerate(cycle):
        assert g.has_edge(u, cycle[(i + 1) % len(cycle)])


def assert_hole(g: Graph, hole):
    """hole is a cycle of length >= 4 with no edges besides its own."""
    assert_cycle(g, hole, min_len=4)
    for i, u in enumerate(hole):
        for j in range(i + 2, len(hole)):
            if (i, j) != (0, len(hole) - 1):
                assert not g.has_edge(u, hole[j])


def assert_dicycle(d: Digraph, cycle, odd=False):
    assert len(set(cycle)) == len(cycle) >= 2
    if odd:
        assert len(cycle) % 2 == 1
    for i, u in enumerate(cycle):
        assert d.has_arc(u, cycle[(i + 1) % len(cycle)])


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4, by direct subset checking."""
    for k in range(4, g.n + 1):
        for sub in combinations(range(g.n), k):
            inside = set(sub)
            degs = [sum(1 for w in g.neighbors(v) if w in inside) for v in sub]
            if any(d != 2 for d in degs):
                continue
            # Connected 2-regular induced subgraph == induced cycle.
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                x = stack.pop()
                for w in g.neighbors(x):
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == k:
                return False
    return True


def test_bipartite_basic():
    ok, coloring = is_bipartite(cycle_graph(4))
    assert ok
    ok, witness = is_bipartite(cycle_graph(5))
    assert not ok and len(witness) == 5
    ok, _ = is_bipartite(Graph(0, []))
    assert ok


@pytest.mark.parametrize("seed", range(80))
def test_bipartite_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
    ok, payload = is_bipartite(g)
    if ok:
        assert all(payload[u] != payload[v] for u, v in g.edges())
    else:
        assert_cycle(g, payload, odd=True)


def test_acyclic_undirected():
    ok, _ = is_acyclic_undirected(path_graph(4))
    assert ok
    two_trees = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert is_acyclic_undirected(two_trees)[0]
    ok, cycle = is_acyclic_undirected(cycle_graph(3))
    assert not ok
    assert_cycle(cycle_graph(3), cycle)


def test_acyclic_directed():
    d = Digraph(3, [(0, 1), (1, 2)])
    ok, topo = is_acyclic_directed(d)
    assert ok and len(topo) == 3
    pos = {v: i for i, v in enumerate(topo)}
    assert all(pos[u] < pos[v] for u, v in d.arcs())
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    ok, cycle = is_acyclic_directed(tri)
    assert not ok
    assert_dicycle(tri, cycle)
    assert is_acyclic_directed(Digraph(1, []))[0]


@pytest.mark.parametrize("seed", range(60))
def test_acyclic_random(seed):
    rng = random.Random(300 + seed)
    g = random_graph(rng, rng.randint(1, 9), 0.3)
    ok, cycle = is_acyclic_undirected(g)
    # A graph is a forest iff m == n - #components.
    assert ok == (g.m == g.n - sum(1 for _ in _components(g)))
    if not ok:
        assert_cycle(g, cycle)
    d = random_digraph(rng, rng.randint(1, 8), 0.3)
    ok, payload = is_acyclic_directed(d)
    if not ok:
        assert_dicycle(d, payload)
    else:
        pos = {v: i for i, v in enumerate(payload)}
        assert all(pos[u] < pos[v] for u, v in d.arcs())


@pytest.mark.parametrize("n,seed", [(n, s) for n in (20, 50, 100, 200) for s in range(3)])
def test_acyclic_vs_networkx(n, seed):
    # Mean degree around one, so both answers occur.
    rng = random.Random(900 + seed)
    d = random_digraph(rng, n, rng.choice([0.5, 1.0, 1.5]) / n)
    D = nx.DiGraph(list(d.arcs()))
    D.add_nodes_from(range(n))
    ok, payload = is_acyclic_directed(d)
    assert ok == nx.is_directed_acyclic_graph(D)
    if not ok:
        assert_dicycle(d, payload)
    g = random_graph(rng, n, rng.choice([0.5, 1.0, 1.5]) / n)
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(n))
    ok, cycle = is_acyclic_undirected(g)
    assert ok == nx.is_forest(G)
    if not ok:
        assert_cycle(g, cycle)


def _components(g: Graph):
    seen = set()
    for root in range(g.n):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for w in g.neighbors(x):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        yield comp


def verify_peo(g: Graph, elim) -> bool:
    position = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        for a_i in range(len(later)):
            for b_i in range(a_i + 1, len(later)):
                if not g.has_edge(later[a_i], later[b_i]):
                    return False
    return True


def test_chordal_basic():
    ok, hole = is_chordal(cycle_graph(4))
    assert not ok and sorted(hole) == [0, 1, 2, 3]
    ok, peo = is_chordal(path_graph(5))
    assert ok and verify_peo(path_graph(5), peo)
    assert is_chordal(complete_graph(5))[0]


def test_chordal_c5_plus_chord():
    # C5 plus one chord leaves exactly one hole: the remaining C4.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    ok, hole = is_chordal(g)
    assert not ok
    assert sorted(hole) == [0, 2, 3, 4]


@pytest.mark.parametrize("seed", range(500))
def test_chordal_vs_brute(seed):
    rng = random.Random(7000 + seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
    ok, payload = is_chordal(g)
    assert ok == brute_is_chordal(g)
    if ok:
        assert verify_peo(g, payload)
    else:
        assert_hole(g, payload)
        assert len(payload) == brute_shortest_hole_len(g)


def test_odd_dicycle_free():
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert is_odd_dicycle_free(two_cycle)[0]
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    ok, cycle = is_odd_dicycle_free(tri)
    assert not ok
    assert_dicycle(tri, cycle, odd=True)


@pytest.mark.parametrize("seed", range(60))
def test_odd_dicycle_vs_brute(seed):
    rng = random.Random(500 + seed)
    d = random_digraph(rng, rng.randint(1, 7), rng.choice([0.2, 0.35]))
    ok, payload = is_odd_dicycle_free(d)
    odd_girth = brute_shortest_dicycle_len(d, odd=True)
    assert ok == (odd_girth is None)
    if not ok:
        assert_dicycle(d, payload, odd=True)
        assert len(payload) == odd_girth
    cycle = shortest_dicycle(d)
    girth = brute_shortest_dicycle_len(d, odd=False)
    assert (cycle is None) == (girth is None)
    if cycle is not None:
        assert_dicycle(d, cycle)
        assert len(cycle) == girth


def brute_shortest_dicycle_len(d: Digraph, odd: bool):
    """Length of a shortest directed cycle, of odd length when odd is
    set; None if there is none."""
    best = None
    for k in range(2, d.n + 1):
        if odd and k % 2 == 0:
            continue
        from itertools import permutations

        for perm in permutations(range(d.n), k):
            if perm[0] != min(perm):
                continue
            if all(d.has_arc(perm[i], perm[(i + 1) % k]) for i in range(k)):
                best = k
                return best
    return best


def test_shortest_structures():
    g = cycle_graph(5)
    assert len(shortest_cycle(g)) == 5
    assert shortest_cycle(path_graph(4)) is None
    assert len(shortest_odd_cycle(g)) == 5
    assert shortest_odd_cycle(cycle_graph(6)) is None
    assert len(shortest_hole(cycle_graph(4))) == 4
    assert shortest_hole(complete_graph(4)) is None
    d = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(shortest_dicycle(d)) == 4
    assert shortest_odd_dicycle(d) is None


@pytest.mark.parametrize("seed", range(60))
def test_shortest_structures_random(seed):
    rng = random.Random(900 + seed)
    g = random_graph(rng, rng.randint(1, 8), 0.4)
    c = shortest_cycle(g)
    if c is None:
        assert is_acyclic_undirected(g)[0]
    else:
        assert_cycle(g, c)
        assert len(c) == brute_girth(g)
    oc = shortest_odd_cycle(g)
    if oc is None:
        assert is_bipartite(g)[0]
    else:
        assert_cycle(g, oc, odd=True)
        assert len(oc) == brute_girth(g, odd=True)
    h = shortest_hole(g)
    if h is None:
        assert brute_is_chordal(g)
    else:
        assert_hole(g, h)
        assert len(h) == brute_shortest_hole_len(g)


@pytest.mark.parametrize("seed", range(40))
def test_recognizers_vs_networkx(seed):
    # Beyond brute-force reach: chordality with a shortest-hole witness,
    # girth and bipartiteness against networkx at n = 20-40.
    rng = random.Random(31_000 + seed)
    g = random_graph(rng, rng.randint(20, 40), rng.choice([0.04, 0.08, 0.12, 0.2]))
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(g.n))
    ok, payload = is_chordal(g)
    assert ok == nx.is_chordal(G)
    if not ok:
        assert_hole(g, payload)
        shorter = nx.chordless_cycles(G, length_bound=len(payload) - 1)
        assert all(len(c) < 4 for c in shorter)
    c = shortest_cycle(g)
    assert (len(c) if c is not None else math.inf) == nx.girth(G)
    assert is_bipartite(g)[0] == nx.is_bipartite(G)


def _shortest_length(cycles, odd: bool) -> float:
    return min((len(c) for c in cycles if not odd or len(c) % 2), default=math.inf)


@pytest.mark.parametrize("seed", range(40))
def test_cycle_searches_vs_networkx(seed):
    # Beyond brute-force reach: the odd-cycle BFS and the digraphs'
    # closed-walk searches against cycle enumeration by networkx at
    # n = 20-40.  Only cycles shorter than the one returned are
    # enumerated, plus its own length.
    rng = random.Random(32_000 + seed)
    n = rng.randint(20, 40)
    g = random_graph(rng, n, rng.choice([0.04, 0.06, 0.08, 0.12]))
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(n))
    oc = shortest_odd_cycle(g)
    if oc is None:
        assert nx.is_bipartite(G)
    else:
        # A shortest odd cycle has no chord, or the chord would close a
        # shorter odd one.
        assert_cycle(g, oc, odd=True)
        found = _shortest_length(nx.chordless_cycles(G, length_bound=len(oc)), odd=True)
        assert found == len(oc)

    d = random_digraph(rng, n, rng.choice([0.03, 0.04, 0.05, 0.08]))
    D = nx.DiGraph(list(d.arcs()))
    D.add_nodes_from(range(n))
    c = shortest_dicycle(d)
    if c is None:
        assert nx.is_directed_acyclic_graph(D)
    else:
        assert_dicycle(d, c)
        assert _shortest_length(nx.simple_cycles(D, length_bound=len(c)), odd=False) == len(c)
    odd = shortest_odd_dicycle(d)
    if odd is None:
        # A strongly connected digraph has an odd directed cycle exactly
        # when its underlying graph is not bipartite.
        assert all(nx.is_bipartite(D.subgraph(comp).to_undirected())
                   for comp in nx.strongly_connected_components(D))
    else:
        assert_dicycle(d, odd, odd=True)
        found = _shortest_length(nx.simple_cycles(D, length_bound=len(odd)), odd=True)
        assert found == len(odd)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.4])
def test_shortest_cycle_matches_reference(p):
    # The same list as the search that builds every cycle it meets, at
    # floors 0, 3 and 4, on gnp and on gnp with a quarter of it isolated.
    for n in range(3, 61):
        g = gnp(n, p, n)
        cut = delete_vertices(g, random.Random(n).sample(range(n), n // 4))
        for h in (g, cut):
            for floor in (0, 3, 4):
                assert shortest_cycle(h, floor) == reference_shortest_cycle(h, floor)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.35])
def test_shortest_odd_cycle_matches_reference(p):
    # Against the parity-state walk search, at floors 0, 3 and 5, on gnp
    # and on gnp with a quarter of it isolated.  The cycles may differ,
    # but not their lengths up to the floor: each search stops once its
    # incumbent is no longer than the floor, so below it any length will do.
    for n in range(1, 61):
        g = gnp(n, p, n)
        cut = delete_vertices(g, random.Random(n).sample(range(n), n // 4))
        for h in (g, cut):
            for floor in (0, 3, 5):
                oc = shortest_odd_cycle(h, floor)
                ref = reference_shortest_odd_cycle(h, floor)
                assert (oc is None) == (ref is None)
                if oc is not None:
                    assert_cycle(h, oc, odd=True)
                    assert max(len(oc), floor) == max(len(ref), floor)


def test_shortest_odd_cycle_away_from_its_root():
    # A path 0 .. 9 hangs off a triangle {10, 11, 12}; root 0 finds the
    # triangle through the same-depth edge (11, 12), meeting at 10.  With
    # a 5-cycle 13 .. 17 hung off 0 too, root 0 meets that first and stops
    # at depth 3, before the triangle; the triangle's own roots find it.
    path = [(i, i + 1) for i in range(10)]
    triangle = [(10, 11), (11, 12), (10, 12)]
    assert shortest_odd_cycle(Graph(13, path + triangle)) == [11, 10, 12]
    pentagon = [(13 + i, 13 + (i + 1) % 5) for i in range(5)]
    g = Graph(18, [(0, 13)] + path + triangle + pentagon)
    assert sorted(shortest_odd_cycle(g)) == [10, 11, 12]
    assert len(reference_shortest_odd_cycle(g)) == 3


# The five structure searches, and whether each runs on digraphs.
SEARCHES = [
    (shortest_cycle, False),
    (shortest_odd_cycle, False),
    (shortest_hole, False),
    (shortest_dicycle, True),
    (shortest_odd_dicycle, True),
]


def _search_corpus(directed: bool, salt: str, count: int):
    """Seeded graphs (or digraphs) with n = 1-40 and average degree
    1.2-3, in- and out-degree together for digraphs."""
    rng = random.Random(f"floor-{salt}-{directed}")
    for _ in range(count):
        n = rng.randint(1, 40)
        p = min(1.0, rng.uniform(1.2, 3.0) / max(n - 1, 1))
        yield random_digraph(rng, n, p / 2) if directed else random_graph(rng, n, p)


@pytest.mark.parametrize("search,directed", SEARCHES,
                         ids=[s.__name__ for s, _ in SEARCHES])
def test_floor_at_most_the_minimum_changes_no_result(search, directed):
    # A search stops once its incumbent reaches the floor; every floor up
    # to the true minimum returns the structure found without a floor.
    for g in _search_corpus(directed, "invariance", 30):
        plain = search(g)
        top = len(plain) if plain is not None else g.n
        for f in range(top + 1):
            assert search(g, f) == plain


@pytest.mark.parametrize("search,directed", SEARCHES,
                         ids=[s.__name__ for s, _ in SEARCHES])
def test_isolating_a_vertex_never_shortens_the_structure(search, directed):
    # What the branching solver's floors rest on: a structure of g bounds
    # the structures of every graph below g.
    for g in _search_corpus(directed, "monotone", 20):
        plain = search(g)
        for w in range(g.n):
            below = search(isolate(g, w))
            if plain is None:
                assert below is None
            elif below is not None:
                assert len(below) >= len(plain)


# Each problem's recognizer, whose no-witness is the problem's structure.
RECOGNIZERS = {
    "fvs": is_acyclic_undirected,
    "oct": is_bipartite,
    "dfvs": is_acyclic_directed,
    "doct": is_odd_dicycle_free,
    "cvd": is_chordal,
}


@pytest.mark.parametrize("problem", sorted(RECOGNIZERS))
def test_no_witness_is_the_forbidden_structure(problem):
    # The verdict is "no structure", and a "no" comes with exactly the
    # structure the branching solver pivots on.
    prob = PROBLEMS[problem]
    rng = random.Random(f"witness-{problem}")
    for _ in range(300):
        n = rng.randint(1, 16)
        p = min(1.0, rng.uniform(0.8, 3.0) / max(n - 1, 1))
        g = random_digraph(rng, n, p / 2) if prob.directed else random_graph(rng, n, p)
        ok, witness = RECOGNIZERS[problem](g)
        structure = prob.forbidden_structure(g, 0)
        assert ok == (structure is None)
        if not ok:
            assert witness == structure


def brute_girth(g: Graph, odd=False):
    from itertools import permutations

    best = None
    for k in range(3, g.n + 1):
        if odd and k % 2 == 0:
            continue
        for perm in permutations(range(g.n), k):
            if perm[0] != min(perm) or perm[1] > perm[-1]:
                continue
            if all(g.has_edge(perm[i], perm[(i + 1) % k]) for i in range(k)):
                return k
    return best


def brute_shortest_hole_len(g: Graph):
    from itertools import permutations

    for k in range(4, g.n + 1):
        for perm in permutations(range(g.n), k):
            if perm[0] != min(perm) or perm[1] > perm[-1]:
                continue
            if not all(g.has_edge(perm[i], perm[(i + 1) % k]) for i in range(k)):
                continue
            chordless = all(
                not g.has_edge(perm[i], perm[j])
                for i in range(k)
                for j in range(i + 2, k)
                if (i, j) != (0, k - 1)
            )
            if chordless:
                return k
    return None
