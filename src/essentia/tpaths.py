"""Packings of T-paths (paths with at least one edge and both endpoints
in a terminal set T) via reductions to maximum matching.

Any-parity packing: build an auxiliary graph with one copy of every
terminal and two adjacent copies of every non-terminal, one map holding
each vertex's copies, and join every copy of u to every copy of v for
each edge uv.  A maximum matching there exceeds the number of copy
pairs by exactly the maximum number of vertex-disjoint T-paths.

Odd packing: the auxiliary graph is the original graph plus a copy of
G - T, with each non-terminal joined to its copy.  Odd T-paths
correspond to matchings that alternate between original and copy edges.

Both packers copy only the non-terminals that have an edge: an isolated
one lies on no T-path, and its copy pair would only match itself.

Each packer only builds its auxiliary graph, with the copy pairs P and
the map back to G; both then end in one shared tail, ``_pack``, which
reads the paths off M xor P for a maximum matching M.  Only terminals
are uncovered by P, so a component of M xor P with one more M-edge than
P-edges ends in two terminals and passes each non-terminal once,
through its copy pair: it maps back to a T-path.  A maximum M leaves no
P-heavy component, since one would augment M, so it has exactly
|M| - |P| M-heavy components.
"""
from __future__ import annotations

from typing import Iterable

from .graphs import Graph
from .matching import max_matching_adj


def _pack(T: frozenset[int], adj: list[list[int]], pairs: list[tuple[int, int]],
          back: list[int], odd: bool) -> tuple[tuple[int, ...], ...]:
    """The tail both packers share: trace each M-heavy component of
    M xor P from its smaller terminal, and drop a trace that reaches an
    M-exposed copy (a component with as many P-edges as M-edges)."""
    mate = max_matching_adj(adj)
    nu = sum(1 for v, m in enumerate(mate) if m > v)
    count = nu - len(pairs)
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")
    partner = {}
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    paths = []
    ends: set[int] = set()
    for x, t in enumerate(back):
        if t not in T or x in ends:
            continue
        path = [t]
        y = mate[x]
        # y is a copy, a terminal, or -1 (t or the last copy is M-exposed).
        while y in partner:
            path.append(back[y])
            y = mate[partner[y]]
        if y == -1:
            continue
        ends.add(y)
        paths.append((*path, back[y]))
    if len(paths) != count:
        raise AssertionError(f"traced {len(paths)} paths, matching promised {count}")
    if odd and any(len(p) % 2 != 0 for p in paths):
        raise AssertionError("traced path of even edge length in odd packing")
    used = [v for p in paths for v in p]
    if len(set(used)) != len(used):
        raise AssertionError("traced paths are not simple and pairwise vertex-disjoint")
    return tuple(paths)


def max_T_path_packing(g: Graph, terminals: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximum-cardinality packing of pairwise vertex-disjoint T-paths."""
    T = frozenset(terminals)
    nonterm = [v for v in range(g.n) if v not in T and g.degree(v)]
    # Terminals come first in sorted order, then the two copies of each
    # non-terminal side by side; back lists every auxiliary vertex's image.
    back = sorted(T) + [u for u in nonterm for _ in range(2)]
    copies: dict[int, tuple[int, ...]] = {}
    for x, u in enumerate(back):
        copies[u] = copies.get(u, ()) + (x,)
    adj: list[list[int]] = [[] for _ in back]

    def link(x: int, y: int) -> None:
        adj[x].append(y)
        adj[y].append(x)

    for u, v in g.edges():
        for x in copies[u]:
            for y in copies[v]:
                link(x, y)
    pairs = [copies[u] for u in nonterm]
    for a, b in pairs:
        link(a, b)
    return _pack(T, adj, pairs, back, odd=False)


def _odd_aux_graph(g: Graph, T: frozenset[int]):
    """Auxiliary graph for odd T-path packing: G plus a copy g.n + i of
    the i-th non-terminal with an edge, joined to it; returns
    (adj, pairs, back)."""
    nonterm = [v for v in range(g.n) if v not in T and g.degree(v)]
    back = list(range(g.n)) + nonterm
    pairs = [(u, g.n + i) for i, u in enumerate(nonterm)]
    copy = dict(pairs)
    adj: list[list[int]] = [[] for _ in back]

    def link(x: int, y: int) -> None:
        adj[x].append(y)
        adj[y].append(x)

    for u, v in g.edges():
        link(u, v)
        if u not in T and v not in T:
            link(copy[u], copy[v])
    for a, b in pairs:
        link(a, b)
    return adj, pairs, back


def max_odd_T_path_packing(g: Graph, terminals: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximum-cardinality packing of pairwise vertex-disjoint odd T-paths."""
    T = frozenset(terminals)
    return _pack(T, *_odd_aux_graph(g, T), odd=True)
