"""Graph construction, id-preserving deletion, and the file format."""
from __future__ import annotations

import random

import pytest
import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph, random_digraph, random_graph
from essentia.generate import gnp, planted_ess, planted_flower, planted_size
from essentia.graphs import (
    Digraph,
    Graph,
    GraphError,
    GraphFormatError,
    MAX_VERTICES,
    blocks,
    components,
    delete_vertices,
    induced,
    isolate,
    parse_graph,
    serialize_graph,
    spans,
)
from essentia.problems import PROBLEMS


def test_construction_invariants():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g.neighbors(1) == (0, 2)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
            assert u != v


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Digraph(2, [(1, 1)])
    with pytest.raises(GraphError):
        Digraph(2, [(0, 1), (0, 1)])


def test_digraph_allows_antiparallel():
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.m == 2
    assert d.has_arc(0, 1) and d.has_arc(1, 0)
    # An edge is stored as two arcs, so the rows match those of the
    # antiparallel pair; the two types still differ.
    g = Graph(2, [(0, 1)])
    assert [g.neighbors(v) for v in range(2)] == [d.successors(v) for v in range(2)]
    assert g != d and d != g
    assert serialize_graph(g) != serialize_graph(d)


def test_delete_from_triangle():
    g = delete_vertices(cycle_graph(3), [0])
    assert g == Graph(3, [(1, 2)])
    assert g.neighbors(0) == ()


def test_delete_nothing_is_identity():
    g = cycle_graph(5)
    assert delete_vertices(g, []) == g


def test_delete_c5_two_vertices_gives_p3():
    # C5 minus {0, 2}: ids 0..4 stay, only the edge 3-4 is left.
    h = delete_vertices(cycle_graph(5), [0, 2])
    assert h.n == 5
    assert sorted(h.edges()) == [(3, 4)]
    assert h.degree(0) == h.degree(2) == 0


def test_delete_out_of_range():
    with pytest.raises(GraphError):
        delete_vertices(cycle_graph(3), [7])
    with pytest.raises(GraphError):
        delete_vertices(Digraph(2, [(0, 1)]), [-1])


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_delete_composition(seed, directed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    g = random_digraph(rng, n, 0.5) if directed else random_graph(rng, n, 0.5)
    xs = {v for v in range(n) if rng.random() < 0.3}
    ys = {v for v in range(n) if rng.random() < 0.3} - xs
    g1 = delete_vertices(g, xs)
    assert g1.n == g.n
    pairs = g1.arcs() if directed else g1.edges()
    assert not any(u in xs or v in xs for u, v in pairs)
    assert delete_vertices(g1, ys) == delete_vertices(g, xs | ys)


def test_parse_triangle():
    text = "p ud 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    g = parse_graph(text)
    assert g == cycle_graph(3)


def test_parse_directed():
    d = parse_graph("p di 3 2\nc a comment\ne 1 2\ne 3 1\n")
    assert isinstance(d, Digraph)
    assert sorted(d.arcs()) == [(0, 1), (2, 0)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p ud 2 1\ne 1 1\n", "self-loop"),
        ("p ud 2 2\ne 1 2\ne 2 1\n", "duplicate"),
        ("p ud 2 1\ne 1 3\n", "out of range"),
        ("p xx 2 1\ne 1 2\n", "malformed header"),
        ("e 1 2\n", "before header"),
        ("p ud 2 2\ne 1 2\n", "header declares"),
        ("", "missing header"),
        ("p ud 2 1\nq 1 2\n", "unknown line"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_refuses_a_vertex_count_above_the_limit():
    # Refused at the header, before any vertex is allocated.
    assert parse_graph("p ud 3 0\n").n == 3
    for n in (MAX_VERTICES + 1, 99999999999999999999):
        with pytest.raises(GraphFormatError, match="more than") as exc:
            parse_graph(f"c big\np ud {n} 1\ne 1 2\n")
        assert exc.value.line_no == 2


def test_parse_error_reports_line_number():
    # An edge-count mismatch is reported at the header's line.
    for text in ("p ud 3 2\ne 1 2\ne 3 3\n", "c a\nc b\np ud 2 2\ne 1 2\n"):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line_no == 3


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 9)
    g = random_graph(rng, n, 0.4) if rng.random() < 0.5 else random_digraph(rng, n, 0.3)
    text = serialize_graph(g)
    assert parse_graph(text) == g
    # serialize(parse(t)) is a fixpoint: canonical text round-trips bit-exact.
    assert serialize_graph(parse_graph(text)) == text


def test_planted_generators_reject_negative_petals():
    with pytest.raises(ValueError):
        planted_flower("fvs", -1)
    with pytest.raises(ValueError):
        planted_ess("fvs", petals=-1)


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_planted_size_counts_the_built_vertices(problem):
    for q in range(6):
        assert planted_size(problem, q) == planted_flower(problem, q).n, q
    if problem in ("doct", "cvd"):  # planted_ess refuses these
        return
    for centers in (1, 2, 4):
        for background in (0, 1, 3):
            for petals in (None, 0, 1, 5):
                g = planted_ess(problem, centers, petals, background)
                assert planted_size(problem, petals, centers, background) == g.n, (
                    centers, background, petals)


def _views(g):
    """Every adjacency query of g, by vertex id."""
    if isinstance(g, Graph):
        rows = [(g.neighbors(v),) for v in range(g.n)]
        pairs = [g.has_edge(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    else:
        rows = [(g.successors(v), g.predecessors(v)) for v in range(g.n)]
        pairs = [g.has_arc(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    return rows, pairs, g.m


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("directed", [False, True])
def test_isolate_matches_delete_vertices(seed, directed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7])
    g = random_digraph(rng, n, p) if directed else random_graph(rng, n, p)
    before = _views(g)
    problems = [q for q in PROBLEMS.values() if q.directed == directed]
    for w in range(g.n):
        h = isolate(g, w)
        # A fresh, validated build of g with w left isolated.
        pairs = g.arcs() if directed else g.edges()
        rebuilt = type(g)(g.n, [(u, v) for u, v in pairs if w not in (u, v)])
        assert _views(h) == _views(rebuilt)
        assert h == rebuilt and h.n == g.n
        assert delete_vertices(g, [w]) == h
        for prob in problems:
            assert prob.in_class(h) == prob.in_class(rebuilt), (prob.id, w)
    assert _views(g) == before


def test_components_named():
    # An arc joins its two ends whichever way it points; isolated vertices
    # are components of their own, and components come by least vertex.
    d = Digraph(7, [(5, 0), (3, 1), (1, 6)])
    assert components(d) == [(0, 5), (1, 3, 6), (2,), (4,)]
    g = Graph(6, [(4, 2), (2, 0), (3, 5)])
    assert components(g) == [(0, 2, 4), (1,), (3, 5)]
    assert components(Graph(0)) == []


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("directed", [False, True])
def test_components_vs_networkx(seed, directed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 30), rng.choice([0.03, 0.08, 0.15])
    g = random_digraph(rng, n, p) if directed else random_graph(rng, n, p)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.arcs() if directed else g.edges())
    expected = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
    assert components(g) == expected


def test_blocks_named():
    # Two triangles sharing the cut vertex 2, a bridge 4-5 to a pendant
    # path 5-6, and the isolated vertex 7, which lies in no block.
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6)])
    assert sorted(blocks(g)) == [(0, 1, 2), (2, 3, 4), (4, 5), (5, 6)]
    assert spans(blocks(g), g.n) == [
        (0, 1, 2), (0, 1, 2), (0, 1, 2, 3, 4), (2, 3, 4), (2, 3, 4, 5), (4, 5, 6), (5, 6), (7,)]
    assert blocks(Graph(0)) == [] and spans([], 0) == []
    assert spans(blocks(Graph(2)), 2) == [(0,), (1,)]
    # A vertex in one block gets that block itself.
    s = spans(blocks(g), g.n)
    assert s[0] is s[1]


def test_blocks_of_a_digraph_are_those_of_its_underlying_graph():
    # An antiparallel pair is one bridge block; a directed triangle and
    # its reverse orientation have the same block.
    d = Digraph(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (4, 5)])
    assert sorted(blocks(d)) == [(0, 1), (1, 2, 3), (4, 5)]
    assert spans(blocks(d), d.n)[1] == (0, 1, 2, 3)
    assert blocks(Digraph(3, [(0, 1), (1, 2), (0, 2)])) == [(0, 1, 2)]


def test_blocks_of_long_paths_and_cycles_need_no_recursion():
    n = 20_000
    assert sorted(blocks(path_graph(n))) == [(v, v + 1) for v in range(n - 1)]
    assert blocks(cycle_graph(n)) == [tuple(range(n))]
    cycle = Digraph(n, [(v, (v + 1) % n) for v in range(n)])
    assert blocks(cycle) == [tuple(range(n))]
    s = spans(blocks(path_graph(n)), n)
    assert s[0] == (0, 1) and s[n // 2] == (n // 2 - 1, n // 2, n // 2 + 1)


def _nx_spans(g) -> list[tuple[int, ...]]:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs() if g.directed else g.edges())
    out = [{v} for v in range(g.n)]
    for block in nx.biconnected_components(h):
        for v in block:
            out[v] |= block
    return [tuple(sorted(s)) for s in out]


@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.35])
@pytest.mark.parametrize("directed", [False, True])
def test_block_spans_vs_networkx(p, directed):
    for n in range(1, 61):
        g = gnp(n, p, n, directed=directed)
        assert spans(blocks(g), n) == _nx_spans(g), n
    # Isolating vertices leaves them in no block, between the others.
    g = isolate(isolate(gnp(40, p, 7, directed=directed), 3), 20)
    assert spans(blocks(g), g.n) == _nx_spans(g)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("directed", [False, True])
def test_induced_maps_edges_by_position(seed, directed):
    rng = random.Random(seed)
    n, p = rng.randint(1, 12), rng.choice([0.2, 0.4, 0.7])
    g = random_digraph(rng, n, p) if directed else random_graph(rng, n, p)
    assert induced(g, range(g.n)) == g
    vs = tuple(v for v in range(n) if rng.random() < 0.6)
    h = induced(g, vs)
    pos = {v: i for i, v in enumerate(vs)}
    pairs = g.arcs() if directed else g.edges()
    kept = [(pos[u], pos[v]) for u, v in pairs if u in pos and v in pos]
    # A fresh, validated build of the same subgraph, in-rows included.
    rebuilt = type(g)(len(vs), kept)
    assert _views(h) == _views(rebuilt)
    assert h == rebuilt and h.n == len(vs)
