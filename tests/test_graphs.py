"""Graph construction, id-preserving deletion, and the file format."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, random_digraph, random_graph
from essentia.generate import planted_ess, planted_flower
from essentia.graphs import (
    Digraph,
    Graph,
    GraphError,
    GraphFormatError,
    delete_vertices,
    isolate,
    parse_graph,
    serialize_graph,
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


def test_parse_error_reports_line_number():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("p ud 3 2\ne 1 2\ne 3 3\n")
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
