"""Recognizers and the shortest-structure searches vs brute force on
exhaustive small corpora, and vs networkx beyond its reach."""
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
import essentia.recognize as recognize
from essentia.generate import gnp, planted_flower
from essentia.graphs import Digraph, Graph, delete_vertices, isolate
from essentia.oracle import feasible
from essentia.problems import PROBLEMS
from essentia.recognize import (
    is_acyclic_directed,
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


def is_forest(g: Graph) -> bool:
    """fvs's recognizer: the cycle rank is 0."""
    return PROBLEMS["fvs"].in_class(g)


def to_nx(g: Graph | Digraph):
    """g as a networkx graph (digraph) on vertices 0 .. n - 1."""
    G = nx.DiGraph(list(g.arcs())) if g.directed else nx.Graph(list(g.edges()))
    G.add_nodes_from(range(g.n))
    return G


def test_bipartite_basic():
    assert is_bipartite(cycle_graph(4))
    assert not is_bipartite(cycle_graph(5))
    assert len(shortest_odd_cycle(cycle_graph(5))) == 5
    assert is_bipartite(Graph(0, []))


@pytest.mark.parametrize("seed", range(80))
def test_bipartite_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
    ok = is_bipartite(g)
    assert ok == nx.is_bipartite(to_nx(g))
    cycle = shortest_odd_cycle(g)
    assert ok == (cycle is None)
    if not ok:
        assert_cycle(g, cycle, odd=True)


def test_acyclic_undirected():
    assert is_forest(path_graph(4))
    two_trees = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert is_forest(two_trees)
    assert not is_forest(cycle_graph(3))
    assert_cycle(cycle_graph(3), shortest_cycle(cycle_graph(3)))


def test_acyclic_directed():
    assert is_acyclic_directed(Digraph(3, [(0, 1), (1, 2)]))
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_acyclic_directed(tri)
    assert_dicycle(tri, shortest_dicycle(tri))
    assert is_acyclic_directed(Digraph(1, []))


@pytest.mark.parametrize("seed", range(60))
def test_acyclic_random(seed):
    rng = random.Random(300 + seed)
    g = random_graph(rng, rng.randint(1, 9), 0.3)
    ok = is_forest(g)
    # A graph is a forest iff m == n - #components.
    assert ok == (g.m == g.n - sum(1 for _ in _components(g)))
    cycle = shortest_cycle(g)
    assert ok == (cycle is None)
    if not ok:
        assert_cycle(g, cycle)
    d = random_digraph(rng, rng.randint(1, 8), 0.3)
    ok = is_acyclic_directed(d)
    assert ok == nx.is_directed_acyclic_graph(to_nx(d))
    cycle = shortest_dicycle(d)
    assert ok == (cycle is None)
    if not ok:
        assert_dicycle(d, cycle)


@pytest.mark.parametrize("n,seed", [(n, s) for n in (20, 50, 100, 200) for s in range(3)])
def test_acyclic_vs_networkx(n, seed):
    # Mean degree around one, so both answers occur.
    rng = random.Random(900 + seed)
    d = random_digraph(rng, n, rng.choice([0.5, 1.0, 1.5]) / n)
    ok = is_acyclic_directed(d)
    assert ok == nx.is_directed_acyclic_graph(to_nx(d))
    cycle = shortest_dicycle(d)
    assert ok == (cycle is None)
    if not ok:
        assert_dicycle(d, cycle)
    g = random_graph(rng, n, rng.choice([0.5, 1.0, 1.5]) / n)
    ok = is_forest(g)
    assert ok == nx.is_forest(to_nx(g))
    cycle = shortest_cycle(g)
    assert ok == (cycle is None)
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


def test_chordal_basic():
    assert not is_chordal(cycle_graph(4))
    assert sorted(shortest_hole(cycle_graph(4))) == [0, 1, 2, 3]
    assert is_chordal(path_graph(5))
    assert is_chordal(complete_graph(5))


def test_chordal_c5_plus_chord():
    # C5 plus one chord leaves exactly one hole: the remaining C4.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert not is_chordal(g)
    assert sorted(shortest_hole(g)) == [0, 2, 3, 4]


@pytest.mark.parametrize("seed", range(500))
def test_chordal_vs_brute(seed):
    rng = random.Random(7000 + seed)
    g = random_graph(rng, rng.randint(1, 7), rng.choice([0.25, 0.5, 0.75]))
    ok = is_chordal(g)
    assert ok == brute_is_chordal(g)
    hole = shortest_hole(g)
    assert ok == (hole is None)
    if not ok:
        assert_hole(g, hole)
        assert len(hole) == brute_shortest_hole_len(g)


def test_odd_dicycle_free():
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert is_odd_dicycle_free(two_cycle)
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert not is_odd_dicycle_free(tri)
    assert_dicycle(tri, shortest_odd_dicycle(tri), odd=True)


@pytest.mark.parametrize("seed", range(60))
def test_odd_dicycle_vs_brute(seed):
    rng = random.Random(500 + seed)
    d = random_digraph(rng, rng.randint(1, 7), rng.choice([0.2, 0.35]))
    ok = is_odd_dicycle_free(d)
    odd_girth = brute_shortest_dicycle_len(d, odd=True)
    assert ok == (odd_girth is None)
    odd = shortest_odd_dicycle(d)
    assert ok == (odd is None)
    if not ok:
        assert_dicycle(d, odd, odd=True)
        assert len(odd) == odd_girth
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
        assert brute_girth(g) is None
    else:
        assert_cycle(g, c)
        assert len(c) == brute_girth(g)
    oc = shortest_odd_cycle(g)
    if oc is None:
        assert brute_girth(g, odd=True) is None
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
    # Beyond brute-force reach: chordality and a shortest hole, girth and
    # bipartiteness against networkx at n = 20-40.
    rng = random.Random(31_000 + seed)
    g = random_graph(rng, rng.randint(20, 40), rng.choice([0.04, 0.08, 0.12, 0.2]))
    G = to_nx(g)
    ok = is_chordal(g)
    assert ok == nx.is_chordal(G)
    hole = shortest_hole(g)
    assert ok == (hole is None)
    if not ok:
        assert_hole(g, hole)
        shorter = nx.chordless_cycles(G, length_bound=len(hole) - 1)
        assert all(len(c) < 4 for c in shorter)
    c = shortest_cycle(g)
    assert (len(c) if c is not None else math.inf) == nx.girth(G)
    assert is_bipartite(g) == nx.is_bipartite(G)


def _shortest_length(cycles, odd: bool) -> float:
    return min((len(c) for c in cycles if not odd or len(c) % 2), default=math.inf)


@pytest.mark.parametrize("seed", range(40))
def test_cycle_searches_vs_networkx(seed):
    # Beyond brute-force reach: the odd-cycle BFS and the digraphs'
    # closed-walk search, plain and odd, against cycle enumeration by
    # networkx at n = 20-40.  Only cycles shorter than the one returned
    # are enumerated, plus its own length.
    rng = random.Random(32_000 + seed)
    n = rng.randint(20, 40)
    g = random_graph(rng, n, rng.choice([0.04, 0.06, 0.08, 0.12]))
    G = to_nx(g)
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
    D = to_nx(d)
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


@pytest.mark.parametrize("problem", ["cvd", "dfvs", "doct", "fvs", "oct"])
def test_no_witness_is_the_forbidden_structure(problem):
    # A "no" has one witness, the structure the branching solver pivots
    # on: in_class says no exactly when forbidden_structure finds one.
    prob = PROBLEMS[problem]
    rng = random.Random(f"witness-{problem}")
    for _ in range(300):
        n = rng.randint(1, 16)
        p = min(1.0, rng.uniform(0.8, 3.0) / max(n - 1, 1))
        g = random_digraph(rng, n, p / 2) if prob.directed else random_graph(rng, n, p)
        assert prob.in_class(g) == (prob.forbidden_structure(g, 0) is None)


def _class_corpus(problem: str):
    """Members and non-members of the problem's class: the empty graph,
    one vertex, a flower with no petal and a flower with two."""
    directed = PROBLEMS[problem].directed
    empty = Digraph(0, []) if directed else Graph(0, [])
    one = Digraph(1, []) if directed else Graph(1, [])
    return [empty, one, planted_flower(problem, 0), planted_flower(problem, 2)]


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_in_class_is_a_predicate(problem, monkeypatch):
    # in_class answers a plain bool, the oracle's verdict on deleting
    # nothing.  On a non-member, only cvd's self-check and doct's
    # recognizer, which is the search's None test, run a structure search.
    calls = []

    def counting(search):
        def counted(*args, **kwargs):
            calls.append(search.__name__)
            return search(*args, **kwargs)
        return counted

    for search, _ in SEARCHES:  # looked up on the module at call time
        monkeypatch.setattr(recognize, search.__name__, counting(search))
    prob = PROBLEMS[problem]
    rng = random.Random(f"predicate-{problem}")
    graphs = _class_corpus(problem) + [
        random_digraph(rng, n, 0.3) if prob.directed else random_graph(rng, n, 0.4)
        for n in range(2, 10)]
    # The searches a non-member's recognizer runs.
    expected = {"cvd": ["shortest_hole"], "doct": ["shortest_odd_dicycle", "shortest_dicycle"]}
    answers = set()
    for g in graphs:
        calls.clear()
        verdict = prob.in_class(g)
        assert type(verdict) is bool
        assert verdict == feasible(problem, g, ())
        answers.add(verdict)
        if not verdict:
            assert calls == expected.get(problem, []), (problem, calls)
    assert answers == {True, False}


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
