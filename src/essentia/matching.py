"""Maximum matching in general graphs and König covers in bipartite ones.

The matching routine is the classic augmenting-path search with blossom
contraction, tracked through a base[] array.  Each phase runs a BFS from
one exposed vertex; odd cycles found during the search are contracted by
repointing bases at their common ancestor.  The algorithm stops when no
exposed vertex admits an augmenting path, which is exactly the
optimality certificate for a matching.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

from .graphs import Graph


def _find_augmenting(adj: Sequence[Sequence[int]], match: list[int], root: int) -> bool:
    """One search phase; augments match[] and returns True if an
    augmenting path from root was found."""
    n = len(adj)
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Even vertex reached: edge (v, to) closes an odd cycle.
                cur_base = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # Augment along the alternating path back to root.
                    while to != -1:
                        pv = parent[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def max_matching_adj(adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching on an adjacency-list graph; returns the mate
    array (mate[v] == -1 for exposed vertices)."""
    n = len(adj)
    match = [-1] * n
    # Greedy warm start cuts the number of search phases.
    for v in range(n):
        if match[v] == -1:
            for to in adj[v]:
                if match[to] == -1:
                    match[v] = to
                    match[to] = v
                    break
    for v in range(n):
        if match[v] == -1 and adj[v]:
            _find_augmenting(adj, match, v)
    return match


def min_vertex_cover_bipartite(g: Graph, coloring: Sequence[int]) -> set[int]:
    """Minimum vertex cover of a bipartite graph from a proper 2-coloring.

    König construction: starting from the exposed side-0 vertices, walk
    alternating paths (non-matching edges towards side 1, matching edges
    back); the cover is (side0 not reached) + (side1 reached).
    """
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            raise ValueError(f"improper coloring: edge ({u}, {v}) is monochromatic")
    mate = max_matching_adj(g.adjacency)
    side0 = [v for v in range(g.n) if coloring[v] == 0]
    reached = [False] * g.n
    queue = deque()
    for v in side0:
        if mate[v] == -1:
            reached[v] = True
            queue.append(v)
    while queue:
        u = queue.popleft()
        if coloring[u] == 0:
            for w in g.neighbors(u):
                if not reached[w] and mate[u] != w:
                    reached[w] = True
                    queue.append(w)
        else:
            w = mate[u]
            if w != -1 and not reached[w]:
                reached[w] = True
                queue.append(w)
    cover = {v for v in side0 if not reached[v]}
    cover.update(v for v in range(g.n) if coloring[v] == 1 and reached[v])
    matching_size = sum(1 for v in range(g.n) if mate[v] != -1) // 2
    if len(cover) != matching_size:
        raise AssertionError("König equality violated; coloring or matching is wrong")
    return cover
