"""Packings of T-paths (paths with at least one edge and both endpoints
in a terminal set T) via reductions to maximum matching, and the dual
covers on bipartite graphs.

Any-parity packing: build an auxiliary graph with two adjacent copies of
every non-terminal, terminals connected to both copies of their
non-terminal neighbors, and all four copy-copy edges per non-terminal
edge.  A maximum matching there exceeds the number of non-terminals by
exactly the maximum number of vertex-disjoint T-paths.

Odd packing: the auxiliary graph is the original graph plus a copy of
G - T, with each non-terminal joined to its copy.  Odd T-paths
correspond to matchings that alternate between original and copy edges.

Both reductions extract an explicit packing after normalizing the
matching: doubly-used edges are re-paired onto the copy edges, and any
non-terminal with a single matched copy is re-matched to its copy (size
is preserved, so the matching stays maximum throughout).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph
from .matching import max_matching_adj, min_vertex_cover_bipartite
from .recognize import is_bipartite


@dataclass(frozen=True)
class PathPacking:
    paths: tuple[tuple[int, ...], ...]
    kind: str  # "any" | "odd"

    def __len__(self) -> int:
        return len(self.paths)


def _project_and_extract(
    terminals: frozenset[int],
    mate: list[int],
    back: dict[int, int],
    expected: int,
    odd_only: bool,
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
    if odd_only and any(len(p) % 2 != 0 for p in paths):
        raise AssertionError("extracted path of even edge length in odd packing")
    return paths


def _normalize(mate: list[int], pair_of: dict[int, int]) -> None:
    """Re-pair doubled projections and singly-matched copy pairs in place.

    pair_of maps each copy vertex to its partner copy.  Every rewrite
    preserves the matching size, so the matching stays maximum.
    """
    changed = True
    while changed:
        changed = False
        for a, b in pair_of.items():
            if a > b:
                continue
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


def max_T_path_packing(g: Graph, terminals: Iterable[int]) -> PathPacking:
    """Maximum-cardinality packing of pairwise vertex-disjoint T-paths."""
    T = frozenset(terminals)
    nonterm = [v for v in range(g.n) if v not in T]
    idx: dict[int, int] = {}
    for t in sorted(T):
        idx[t] = len(idx)
    copy1: dict[int, int] = {}
    copy2: dict[int, int] = {}
    for u in nonterm:
        copy1[u] = len(idx) + 2 * len(copy2)
        copy2[u] = copy1[u] + 1
    size = len(T) + 2 * len(nonterm)
    adj: list[list[int]] = [[] for _ in range(size)]

    def link(x: int, y: int) -> None:
        adj[x].append(y)
        adj[y].append(x)

    for u, v in g.edges():
        if u in T and v in T:
            link(idx[u], idx[v])
        elif u in T:
            link(idx[u], copy1[v])
            link(idx[u], copy2[v])
        elif v in T:
            link(idx[v], copy1[u])
            link(idx[v], copy2[u])
        else:
            link(copy1[u], copy1[v])
            link(copy1[u], copy2[v])
            link(copy2[u], copy1[v])
            link(copy2[u], copy2[v])
    for u in nonterm:
        link(copy1[u], copy2[u])

    mate = max_matching_adj(adj)
    nu = sum(1 for v, m in enumerate(mate) if m > v)
    count = nu - len(nonterm)
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")

    pair_of = {}
    for u in nonterm:
        pair_of[copy1[u]] = copy2[u]
        pair_of[copy2[u]] = copy1[u]
    _normalize(mate, pair_of)

    back: dict[int, int] = {}
    for t in T:
        back[idx[t]] = t
    for u in nonterm:
        back[copy1[u]] = u
        back[copy2[u]] = u

    paths = _project_and_extract(T, mate, back, count, odd_only=False)
    return PathPacking(tuple(paths), "any")


def _odd_aux_graph(g: Graph, T: frozenset[int]):
    """Auxiliary graph for odd T-path packing: G plus a copy of G - T,
    with non-terminals joined to their copies."""
    nonterm = [v for v in range(g.n) if v not in T]
    copy = {u: g.n + i for i, u in enumerate(nonterm)}
    size = g.n + len(nonterm)
    adj: list[list[int]] = [[] for _ in range(size)]

    def link(x: int, y: int) -> None:
        adj[x].append(y)
        adj[y].append(x)

    for u, v in g.edges():
        link(u, v)
        if u not in T and v not in T:
            link(copy[u], copy[v])
    for u in nonterm:
        link(u, copy[u])
    return adj, copy, nonterm


def max_odd_T_path_packing(g: Graph, terminals: Iterable[int]) -> tuple[int, PathPacking]:
    """Maximum packing of vertex-disjoint odd T-paths, with the packing."""
    T = frozenset(terminals)
    adj, copy, nonterm = _odd_aux_graph(g, T)
    mate = max_matching_adj(adj)
    nu = sum(1 for v, m in enumerate(mate) if m > v)
    count = nu - len(nonterm)
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")

    pair_of = {}
    for u in nonterm:
        pair_of[u] = copy[u]
        pair_of[copy[u]] = u
    _normalize(mate, pair_of)

    back = {v: v for v in range(g.n)}
    for u in nonterm:
        back[copy[u]] = u

    paths = _project_and_extract(T, mate, back, count, odd_only=True)
    return count, PathPacking(tuple(paths), "odd")


def min_odd_T_path_cover_bipartite(g: Graph, terminals: Iterable[int]) -> set[int]:
    """On a bipartite graph: minimum vertex set meeting every odd T-path;
    its size equals the maximum odd T-path packing."""
    T = frozenset(terminals)
    ok, coloring = is_bipartite(g)
    if not ok:
        raise ValueError("graph is not bipartite")
    adj, copy, nonterm = _odd_aux_graph(g, T)
    aux_edges = []
    for x in range(len(adj)):
        for y in adj[x]:
            if x < y:
                aux_edges.append((x, y))
    aux = Graph(len(adj), aux_edges)
    aux_coloring = list(coloring) + [1 - coloring[u] for u in nonterm]
    cover = min_vertex_cover_bipartite(aux, aux_coloring)
    S = {t for t in T if t in cover}
    S.update(u for u in nonterm if u in cover and copy[u] in cover)

    count, _ = max_odd_T_path_packing(g, T)
    if len(S) != count:
        raise AssertionError("cover size differs from packing number")
    return S
