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

Each packer only builds its auxiliary graph, with the copy pairs and
the map back to G; both then end in one shared tail, ``_pack``.  It
matches the auxiliary graph, counts the T-paths as the matching's
excess over the copy pairs, and returns the tuple of paths (G-vertex
tuples) read off after normalizing the matching: doubly-used edges are
re-paired onto the copy edges, and any non-terminal with a single
matched copy is re-matched to its copy (size is preserved, so the
matching stays maximum throughout).
"""
from __future__ import annotations

from typing import Iterable

from .graphs import Graph
from .matching import max_matching_adj


def _project_and_extract(
    terminals: frozenset[int],
    mate: list[int],
    back: list[int],
    expected: int,
    odd: bool,
) -> list[tuple[int, ...]]:
    """Project matched auxiliary edges to G-edges and read off the path
    components; back maps each auxiliary vertex to its G-vertex, so a
    matched pair with one image is a copy-pair edge and projects to
    nothing."""
    adj: dict[int, list[int]] = {}
    seen_pairs = set()
    for x, y in enumerate(mate):
        if y == -1 or y < x:
            continue
        u, v = back[x], back[y]
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            raise AssertionError("normalization left a doubled projection")
        seen_pairs.add(key)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        if v in terminals:
            if len(nbrs) > 1:
                raise AssertionError("terminal with projected degree > 1")
        elif len(nbrs) not in (0, 2):
            raise AssertionError("non-terminal with projected degree not in {0, 2}")
    paths = []
    visited: set[int] = set()
    for t in sorted(adj):
        if t not in terminals or t in visited or not adj[t]:
            continue
        path = [t]
        visited.add(t)
        prev, cur = t, adj[t][0]
        while True:
            path.append(cur)
            visited.add(cur)
            if cur in terminals:
                break
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        paths.append(tuple(path))
    if len(paths) != expected:
        raise AssertionError(
            f"extracted {len(paths)} paths, matching promised {expected}"
        )
    if odd and any(len(p) % 2 != 0 for p in paths):
        raise AssertionError("extracted path of even edge length in odd packing")
    return paths


def _normalize(mate: list[int], pairs: list[tuple[int, int]]) -> None:
    """Re-pair doubled projections and singly-matched copy pairs in place.

    pairs lists each non-terminal's two copies.  Every rewrite preserves
    the matching size, so the matching stays maximum.
    """
    pair_of = {}
    for a, b in pairs:
        pair_of[a] = b
        pair_of[b] = a
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ma, mb = mate[a], mate[b]
            if ma == b:
                continue
            if ma != -1 and mb != -1:
                # Doubled projection: both copies matched into one pair.
                if pair_of.get(ma) == mb:
                    wa, wb = ma, mb
                    mate[a], mate[b] = b, a
                    mate[wa], mate[wb] = wb, wa
                    changed = True
            elif ma != -1 or mb != -1:
                # Exactly one copy matched, and not to its partner.
                x = ma if ma != -1 else mb
                mate[x] = -1
                mate[a], mate[b] = b, a
                changed = True


def _pack(T: frozenset[int], adj: list[list[int]], pairs: list[tuple[int, int]],
          back: list[int], odd: bool) -> tuple[tuple[int, ...], ...]:
    """The tail both packers share: a maximum matching of the auxiliary
    graph adj exceeds its copy pairs by the packing number; normalize it
    and read the paths off through back."""
    mate = max_matching_adj(adj)
    nu = sum(1 for v, m in enumerate(mate) if m > v)
    count = nu - len(pairs)
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")
    _normalize(mate, pairs)
    return tuple(_project_and_extract(T, mate, back, count, odd))


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
