"""Menger kernel vs brute-force minimum separators, networkx and the
capacity-network reference."""
from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import networkx as nx
import pytest

from conftest import random_digraph, random_graph
from essentia.detect import (
    _doct_certificate,
    _doct_scores,
    _shorten,
    flower_number_dfvs,
    label_extended,
)
from essentia.flows import SeparatorResult, SeparatorUndefined, _verify, min_vertex_separator
from essentia.generate import gnp
from essentia.graphs import Digraph
from helpers import split_cycle_separator
from reference_flows import min_vertex_separator as reference_separator


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
            if s == t:  # every cycle through s meets sub
                back = set().union(*(reachable(d, w, set(sub)) for w in d.successors(s)))
                if s not in back:
                    return k
            elif t not in reachable(d, s, set(sub)):
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


def test_cycles_through_source():
    # Two triangles and a 2-cycle through 0; the 2-cycle and one triangle
    # share vertex 3, so only two cycles meet pairwise at 0 alone.
    d = Digraph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0), (3, 4), (4, 0), (5, 0)])
    res = min_vertex_separator(d, 0, 0)
    assert res.separator == frozenset({1, 3})
    assert res.paths == ((0, 1, 2, 0), (0, 3, 0))
    assert min_vertex_separator(Digraph(3, [(0, 1), (1, 2)]), 1, 1).paths == ()


def test_augmenting_path_backs_through_a_vertex():
    # The first path is s a b c t.  The second search enters c from x2
    # and backs through b to a, which leaves by y, so b drops off every
    # path.  The last search comes in at b over w1..w4 and must find b
    # free: through b to c's in-copy, not back to a.
    s, a, b, c, t, y, z, x1, x2, *ws = range(13)
    arcs = [(s, a), (s, x1), (s, ws[0]), (a, b), (a, y), (b, c), (c, t),
            (y, z), (z, t), (x1, x2), (x2, c), *zip(ws, [*ws[1:], b])]
    d = Digraph(13, arcs)
    res = min_vertex_separator(d, s, t)
    assert res.separator == frozenset({a, c})
    assert res.paths == ((s, a, y, z, t), (s, x1, x2, c, t))
    assert (res.separator, res.paths) == _result(reference_separator, d, s, t)


def test_verify_rejects_terminal_inside_path():
    # Two cycles glued at 0 are one closed walk, not a cycle through 0.
    d = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    walk = SeparatorResult(frozenset({1}), ((0, 1, 0, 2, 0),))
    with pytest.raises(AssertionError, match="disjoint"):
        _verify(d, 0, 0, walk)


def test_direct_arc_rejected():
    with pytest.raises(SeparatorUndefined):
        min_vertex_separator(Digraph(2, [(0, 1)]), 0, 1)


@pytest.mark.parametrize("seed", range(120))
def test_random_vs_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    d = random_digraph(rng, n, rng.choice([0.2, 0.35, 0.5]))
    s, t = rng.sample(range(n), 2)
    assert min_vertex_separator(d, s, s).size == brute_min_separator(d, s, s)
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


# Beyond brute force: networkx for s != t, the split-digraph reference
# for s == t, on n = 20..200.
DIFFERENTIAL = [(n, seed) for n in (20, 50, 100, 200) for seed in range(3)]


@pytest.mark.parametrize("n,seed", DIFFERENTIAL)
def test_separator_vs_networkx(n, seed):
    d = gnp(n, 3.0 / n, seed, directed=True)
    h = nx.DiGraph(d.arcs())
    h.add_nodes_from(range(n))
    rng = random.Random(seed)
    for s, t in (rng.sample(range(n), 2) for _ in range(6)):
        # networkx returns an empty cut whenever t -> s is an arc too.
        if d.has_arc(s, t) or d.has_arc(t, s):
            continue
        assert min_vertex_separator(d, s, t).size == len(nx.minimum_node_cut(h, s, t))


@pytest.mark.parametrize("n,seed", DIFFERENTIAL)
def test_cycles_vs_split_reference(n, seed):
    d = gnp(n, 3.0 / n, seed, directed=True)
    for v in random.Random(seed).sample(range(n), 6):
        res, ref = min_vertex_separator(d, v, v), split_cycle_separator(d, v)
        assert (res.size, res.paths) == (ref.size, ref.paths)
        petals = tuple(_shorten(list(p[:-1]), d.has_arc) for p in ref.paths)
        assert flower_number_dfvs(d, v)[1].petals == petals


def _result(kernel, d: Digraph, s: int, t: int):
    try:
        res = kernel(d, s, t)
    except SeparatorUndefined:
        return "undefined"
    return res.separator, res.paths


@pytest.mark.parametrize("n", [*range(1, 16), 20, 30, 50, 80])
def test_identity_with_capacity_network(n):
    # The same separator and the same paths as the split-vertex network,
    # on every kind of call the detectors make: s == t (dfvs) and the
    # copy pairs (2v, 2v + 1) of the label-extended digraph (doct), plus
    # s != t pairs.  Above n = 30 the vertices are sampled.
    for p in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6):
        seed = 1000 * n + int(100 * p)
        d = gnp(n, p, seed, directed=True)
        ext = label_extended(d)
        rng = random.Random(seed)
        vs = range(n) if n <= 30 else rng.sample(range(n), 6)
        calls = [(d, v, v) for v in vs] + [(ext, 2 * v, 2 * v + 1) for v in vs]
        calls += [(d, *rng.sample(range(n), 2)) for _ in range(len(vs) if n > 1 else 0)]
        for graph, s, t in calls:
            assert _result(min_vertex_separator, graph, s, t) == _result(
                reference_separator, graph, s, t), (p, graph.n, s, t)


@pytest.mark.parametrize("n,seed", [(n, seed) for n in (20, 40, 60) for seed in range(3)])
def test_doct_separators_vs_networkx(n, seed):
    # The parity double cover built here on (vertex, parity) labels, not
    # by label_extended, and cut by networkx between v's two copies.
    d = gnp(n, 3.0 / n, seed, directed=True)
    cover = nx.DiGraph()
    cover.add_nodes_from((v, parity) for v in range(n) for parity in (0, 1))
    for u, w in d.arcs():
        cover.add_edges_from([((u, 0), (w, 1)), ((u, 1), (w, 0))])
    scores = _doct_scores(d, range(d.n))
    for v in random.Random(seed).sample(range(n), 5):
        size, res = scores[v]
        cert = _doct_certificate(d, v, res, range(d.n))
        assert size == len(nx.minimum_node_cut(cover, (v, 0), (v, 1)))
        assert size == len(cert.separator) == len(cert.paths)
