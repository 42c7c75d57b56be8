"""Helpers only the tests use: a flower-certificate check, the dual odd
T-path cover on bipartite graphs, matchings as edge sets, the
split-digraph reference for the Menger system from v back to v, and the
scaling of rational LP data to the integers the simplex takes.  The
package never imports this module."""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import networkx as nx

from essentia.detect import FlowerCertificate
from essentia.flows import SeparatorResult, min_vertex_separator
from essentia.graphs import Digraph, Graph
from essentia.matching import max_matching_adj, min_vertex_cover_bipartite
from essentia.problems import PROBLEMS
from essentia.tpaths import _aux_graph, max_odd_T_path_packing


def verify_flower_certificate(
    problem: str, g: Graph | Digraph, cert: FlowerCertificate
) -> None:
    """Structural check: every petal is a forbidden cycle through the
    center and petals pairwise share exactly the center."""
    directed = PROBLEMS[problem].directed
    for petal in cert.petals:
        if petal[0] != cert.center or len(set(petal)) != len(petal):
            raise AssertionError(f"bad petal {petal}")
        size = len(petal)
        if directed:
            if size < 2:
                raise AssertionError(f"petal too short: {petal}")
            for i in range(size):
                if not g.has_arc(petal[i], petal[(i + 1) % size]):
                    raise AssertionError(f"petal {petal} misses an arc")
        else:
            if size < 3:
                raise AssertionError(f"petal too short: {petal}")
            for i in range(size):
                if not g.has_edge(petal[i], petal[(i + 1) % size]):
                    raise AssertionError(f"petal {petal} misses an edge")
        if problem == "oct" and size % 2 == 0:
            raise AssertionError(f"even petal in an odd-cycle flower: {petal}")
    for i in range(len(cert.petals)):
        for j in range(i + 1, len(cert.petals)):
            common = set(cert.petals[i]) & set(cert.petals[j])
            if common != {cert.center}:
                raise AssertionError("petals overlap outside the center")


def min_odd_T_path_cover_bipartite(g: Graph, terminals: Iterable[int]) -> set[int]:
    """On a bipartite graph: minimum vertex set meeting every odd T-path;
    its size equals the maximum odd T-path packing."""
    T = frozenset(terminals)
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(g.n))
    if not nx.is_bipartite(G):
        raise ValueError("graph is not bipartite")
    coloring = nx.bipartite.color(G)
    adj = _aux_graph(g, T, odd=True)
    aux_edges = []
    for x in range(len(adj)):
        for y in adj[x]:
            if x < y:
                aux_edges.append((x, y))
    aux = Graph(len(adj), aux_edges)
    # Slot 2v + b of the auxiliary graph takes v's colour, flipped for a copy.
    aux_coloring = [coloring[x >> 1] ^ (x & 1) for x in range(len(adj))]
    cover = min_vertex_cover_bipartite(aux, aux_coloring)
    S = {t for t in T if 2 * t in cover}
    S.update(v for v in range(g.n) if 2 * v in cover and 2 * v + 1 in cover)

    if len(S) != len(max_odd_T_path_packing(g, T)):
        raise AssertionError("cover size differs from packing number")
    return S


def max_matching(g: Graph) -> set[tuple[int, int]]:
    """Maximum-cardinality matching as a set of (u, v) pairs with u < v."""
    mate = max_matching_adj(g.adjacency)
    return {(v, mate[v]) for v in range(g.n) if mate[v] > v}


def split_cycle_separator(d: Digraph, v: int) -> SeparatorResult:
    """Reference for ``min_vertex_separator(d, v, v)``: a fresh vertex n
    takes over v's out-arcs, v keeps its in-arcs, and each n..v path of
    the Menger system between them is mapped back to a cycle v..v."""
    arcs = [(d.n if u == v else u, w) for u, w in d.arcs()]
    res = min_vertex_separator(Digraph(d.n + 1, arcs), d.n, v)
    return SeparatorResult(res.separator, tuple((v, *p[1:]) for p in res.paths))


def integers(values: Sequence) -> tuple[list[int], int]:
    """(integers, scale) with integers[j] == scale * values[j], scale >= 1
    the least common denominator of the rational values."""
    fr = [Fraction(v) for v in values]
    scale = lcm(*[f.denominator for f in fr])
    return [f.numerator * (scale // f.denominator) for f in fr], scale
