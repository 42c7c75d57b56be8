"""Class-membership recognition with witnesses, and shortest forbidden
structures used by the branching solvers.

Every recognizer returns a pair: a boolean verdict plus a certificate.
On the yes side the certificate is constructive (2-coloring, topological
order, perfect elimination order); on the no side it is the list
``PROBLEMS[p].forbidden_structure`` returns, the problem's shortest
forbidden structure in cycle order.  Verdicts come from one pass where
there is one (BFS 2-coloring, Kahn's algorithm, the LexBFS order check,
and for forests the cycle rank m - n + c, which is 0 exactly on
forests), so the all-roots structure search runs only on the no side.

Three search cores serve several callers.  shortest_cycle is the one
undirected cycle search, a BFS per root cut off at the incumbent: it
measures each cycle by the BFS depths and builds only one shorter than
the incumbent, and with odd set (shortest_odd_cycle) it counts only
non-tree edges between vertices of equal depth.  ``_closed_walk`` is
the digraphs' per-root BFS over (vertex, parity) states for a shortest
(odd) closed walk, which shortest_dicycle and shortest_odd_dicycle cap
at the most arcs that could still replace their incumbent; the shortest
such walk over all roots is already a simple cycle.
``light_holes`` is the one hole search, a sink Dijkstra per (center,
neighbour): shortest_hole (and with it is_chordal's witness) runs it
under unit weights, and the CVD LP's separation oracle under the scaled
LP assignment.  Roots that lie on no cycle because they have no
neighbours (no predecessors, for digraphs) are skipped.

The five shortest-structure searches take a floor (default 0), a length
the caller knows the answer cannot go below, and stop once the incumbent
reaches it: shortest_hole at the first hole of that length, the others
before their next root.  Each search replaces its incumbent only with a
strictly shorter one, so the first root (the first hole) wins ties, and
with floor at most the true minimum the result is the one without a
floor.  Deleting vertices never shortens any of these structures, so a
structure of a graph is a valid floor for every graph below it.
"""
from __future__ import annotations

import heapq
from collections import deque
from typing import Iterator, Sequence

from .graphs import Digraph, Graph, components


def is_bipartite(g: Graph) -> tuple[bool, list[int]]:
    """Return (True, BFS 2-coloring, roots in id order) or (False,
    shortest odd cycle)."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, shortest_odd_cycle(g)
    return True, color


def cycle_rank(g: Graph) -> int:
    """mu = m - n + c, the number of edges a spanning forest leaves out."""
    return g.m - g.n + len(components(g))


def is_acyclic_undirected(g: Graph) -> tuple[bool, list[int] | None]:
    """Return (True, None) or (False, shortest cycle)."""
    if cycle_rank(g) == 0:
        return True, None
    return False, shortest_cycle(g)


def is_acyclic_directed(d: Digraph) -> tuple[bool, list[int] | None]:
    """Return (True, Kahn's topological order) or (False, shortest
    directed cycle)."""
    indeg = [len(d.predecessors(v)) for v in range(d.n)]
    queue = deque(v for v in range(d.n) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in d.successors(u):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) == d.n:
        return True, order
    return False, shortest_dicycle(d)


def lexbfs_order(g: Graph) -> list[int]:
    """Lexicographic BFS visit order; ties broken by smallest vertex id."""
    n = g.n
    labels: list[list[int]] = [[] for _ in range(n)]
    visited = [False] * n
    order = []
    for step in range(n):
        v = max(
            (u for u in range(n) if not visited[u]),
            key=lambda u: (labels[u], -u),
        )
        visited[v] = True
        order.append(v)
        stamp = n - step
        for w in g.neighbors(v):
            if not visited[w]:
                labels[w].append(stamp)
    return order


def _is_peo(g: Graph, elim: Sequence[int]) -> bool:
    """Whether elim is a perfect elimination order: the later neighbours
    of each vertex are adjacent to the earliest of them."""
    position = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        if not later:
            continue
        p = min(later, key=position.__getitem__)
        if any(w != p and not g.has_edge(p, w) for w in later):
            return False
    return True


def _paths_to_sinks(
    adj: Sequence[Sequence[int]],
    w: Sequence[int],
    mark: bytearray,
    p: int,
    limit: int,
) -> dict[int, int]:
    """Dijkstra from p over vertex weights w (both endpoints counted) on
    vertices with mark 0; vertices with mark 2 are sinks, reached but never
    expanded, and vertices with mark 1 are never entered.  Ties prefer
    fewer hops, then smaller ids (the heap order), so every tree path has
    no chords.  Paths of weight >= limit are dropped, which changes no
    path lighter than limit.  Returns the predecessor map (p maps to -1)."""
    dist: dict[int, tuple[int, int]] = {p: (w[p], 0)}
    prev: dict[int, int] = {p: -1}
    heap = [(w[p], 0, p)]
    done: set[int] = set()
    while heap:
        d, hops, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for y in adj[x]:
            kind = mark[y]
            if kind == 1 or y in done:
                continue
            cand = (d + w[y], hops + 1)
            if cand[0] >= limit:
                continue
            if y not in dist or cand < dist[y]:
                dist[y] = cand
                prev[y] = x
                if kind == 0:
                    heapq.heappush(heap, (cand[0], cand[1], y))
    return prev


def light_holes(g: Graph, w: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Yield holes of integer vertex weight below total, in (u, p, q) order.

    For each center u and each non-adjacent pair p, q in N(u), a
    minimum-weight p..q path in G - (N[u] - {p, q}) plus u is a chordless
    cycle, and every hole is seen this way from each of its vertices as
    the center.  One Dijkstra per (u, p) serves every later non-adjacent
    neighbour q of u at once, as a sink; since sinks are never expanded,
    each q gets the path a search for q alone would find.  Each (u, p, q)
    whose lightest hole weighs less than total yields that hole.
    """
    adj = g.adjacency
    mark = bytearray(g.n)  # 1: in N[u], never entered; 2: a sink
    for u in range(g.n):
        nbrs = adj[u]
        limit = total - w[u]  # a p..q path lighter than this closes a hole
        mark[u] = 1
        for y in nbrs:
            mark[y] = 1
        for i, p in enumerate(nbrs):
            sinks = [q for q in nbrs[i + 1:] if not g.has_edge(p, q)]
            if not sinks or w[p] >= limit:
                continue
            for q in sinks:
                mark[q] = 2
            prev = _paths_to_sinks(adj, w, mark, p, limit)
            for q in sinks:
                mark[q] = 1
            for q in sinks:
                if q in prev:
                    path = []
                    x = q
                    while x != -1:
                        path.append(x)
                        x = prev[x]
                    yield (u, *reversed(path))
        mark[u] = 0
        for y in nbrs:
            mark[y] = 0


def shortest_hole(g: Graph, floor: int = 0) -> list[int] | None:
    """The first shortest chordless cycle of length >= 4 in (u, p, q)
    order, or None if chordal: light_holes under unit weights, where a
    hole's weight is its length, at most n.  The scan stops at the first
    hole no longer than floor."""
    best: tuple[int, ...] | None = None
    for hole in light_holes(g, [1] * g.n, g.n + 1):
        if best is None or len(hole) < len(best):
            best = hole
            if len(best) <= floor:
                break
    return None if best is None else list(best)


def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """Return (True, perfect elimination order) or (False, shortest hole).

    The reverse of a LexBFS order is a perfect elimination order exactly
    on chordal graphs; the verdict comes from that check alone.
    """
    elim = list(reversed(lexbfs_order(g)))
    if _is_peo(g, elim):
        return True, elim
    hole = shortest_hole(g)
    if hole is None:
        raise AssertionError("PEO verification failed on a chordal graph")
    return False, hole


def _closed_walk(
    s: int, d: Digraph, odd: bool, limit: int, prev: list[int], seen: list[int],
) -> list[int] | None:
    """A shortest closed walk of d through s of at most limit arcs, of
    odd length when odd is set, with walk[0] == walk[-1] == s; None if
    there is none.

    BFS over states 2v + parity, level by level, where an arc u -> w
    flips the parity only when odd is set: the walk runs from state 2s to
    state 2s + odd.  The goal is tested first, as without parity it is
    the start.  The walk returned is the one an unlimited BFS returns
    whenever that one has at most limit arcs.

    prev and seen are the caller's lists over the 2n states, shared by
    the roots of one search, each searched once: state y is reached from
    s when seen[y] == s, and prev[y] is then the state before it.  So a
    root pays for the states it reaches, not for n.
    """
    flip = int(odd)
    goal = 2 * s + flip
    seen[2 * s], prev[2 * s] = s, -1
    level = [2 * s]
    for _ in range(limit):
        following = []
        for x in level:
            bit = (x & 1) ^ flip
            for w in d.successors(x >> 1):
                y = 2 * w + bit
                if y == goal:
                    walk = [s]
                    while x != -1:
                        walk.append(x >> 1)
                        x = prev[x]
                    walk.reverse()
                    return walk
                if seen[y] != s:
                    seen[y], prev[y] = s, x
                    following.append(y)
        if not following:
            break
        level = following
    return None


def is_odd_dicycle_free(d: Digraph) -> tuple[bool, list[int] | None]:
    """Return (True, None) or (False, odd directed cycle witness)."""
    cycle = shortest_odd_dicycle(d)
    return cycle is None, cycle


def shortest_cycle(g: Graph, floor: int = 0, odd: bool = False) -> list[int] | None:
    """A shortest cycle (an odd one if odd is set), or None if there is none.

    A BFS per root; each non-tree edge (u, w) closes a cycle through the
    tree paths up to their meeting vertex, of length depth[u] + depth[w]
    + 1 - 2 depth[meet], which is odd exactly when depth[u] == depth[w]
    (Itai and Rodeh): with odd set only such edges count.  The list is
    built only for a cycle shorter than the incumbent, u .. meet .. w."""
    adj = g.adjacency
    best: list[int] | None = None
    # Shared by the roots: w is in root's tree when seen[w] == root.
    parent, depth, seen = [-1] * g.n, [0] * g.n, [-1] * g.n
    for root in range(g.n):
        if best is not None and len(best) <= floor:
            break
        if not adj[root]:
            continue
        seen[root], parent[root], depth[root] = root, -1, 0
        queue = [root]
        for u in queue:  # queue grows while it is read: a BFS
            du, up = depth[u], parent[u]
            if best is not None and 2 * du + 1 > len(best):
                break
            for w in adj[u]:
                if seen[w] != root:
                    seen[w], parent[w], depth[w] = root, u, du + 1
                    queue.append(w)
                elif (depth[w] == du) if odd else w != up:
                    pu, pw = u, w  # climb to the meeting vertex
                    while pu != pw:
                        if depth[pu] >= depth[pw]:
                            pu = parent[pu]
                        else:
                            pw = parent[pw]
                    if best is None or du + depth[w] + 1 - 2 * depth[pu] < len(best):
                        best = [u]
                        while best[-1] != pu:
                            best.append(parent[best[-1]])
                        tail = [w]
                        while tail[-1] != pu:
                            tail.append(parent[tail[-1]])
                        best += reversed(tail[:-1])  # the meeting vertex once
    return best


def shortest_odd_cycle(g: Graph, floor: int = 0) -> list[int] | None:
    """A shortest odd cycle, or None if the graph is bipartite."""
    return shortest_cycle(g, floor, odd=True)


def _shortest_dicycle(d: Digraph, odd: bool, floor: int) -> list[int] | None:
    """A simple cycle from the shortest closed walk over all roots (the
    first root wins ties); None if there is none."""
    walk: list[int] | None = None
    prev, seen = [0] * (2 * d.n), [-1] * (2 * d.n)
    for s in range(d.n):
        if walk is not None and len(walk) - 1 <= floor:
            break
        if not d.predecessors(s):
            continue
        # Only a walk with fewer edges than the incumbent's replaces it.
        limit = 2 * d.n if walk is None else len(walk) - 2
        cand = _closed_walk(s, d, odd, limit, prev, seen)
        if cand is not None:
            walk = cand
    if walk is None:
        return None
    # With floor at most the minimum, walk is a shortest (odd) closed walk
    # over all roots, so a simple cycle: a repeated vertex would split it
    # into two shorter closed walks, one of them odd when it is odd.
    if len(set(walk)) != len(walk) - 1:
        raise AssertionError("shortest closed walk repeats a vertex")
    return walk[:-1]


def shortest_dicycle(d: Digraph, floor: int = 0) -> list[int] | None:
    """A shortest directed cycle, or None if the digraph is acyclic."""
    return _shortest_dicycle(d, odd=False, floor=floor)


def shortest_odd_dicycle(d: Digraph, floor: int = 0) -> list[int] | None:
    """A shortest simple odd directed cycle, the shortest odd closed walk;
    None if the digraph has no odd directed cycle."""
    return _shortest_dicycle(d, odd=True, floor=floor)
