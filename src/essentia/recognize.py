"""Class-membership recognition with witnesses, and shortest forbidden
structures used by the branching solvers.

Every recognizer returns a pair: a boolean verdict plus a certificate.
On the yes side the certificate is constructive (2-coloring, topological
order, perfect elimination order); on the no side it is a forbidden
structure (odd cycle, cycle, directed cycle, hole) given as a vertex
sequence in cycle order, without repeating the start vertex.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from .graphs import Digraph, Graph


def _cycle_from_walk(walk: Sequence[int], want_odd: bool = False) -> list[int]:
    """Extract a simple cycle from a closed walk (walk[0] == walk[-1]).

    Scans with a stack, splitting off a simple cycle whenever a vertex
    repeats; the walk's edges decompose exactly into the extracted
    cycles, so an odd walk always yields an odd cycle.
    """
    stack: list[int] = []
    pos: dict[int, int] = {}
    best: list[int] | None = None
    for x in walk:
        if x in pos:
            cyc = stack[pos[x]:]
            if not want_odd:
                return cyc
            if len(cyc) % 2 == 1 and (best is None or len(cyc) < len(best)):
                best = cyc
            for y in cyc[1:]:
                del pos[y]
            del stack[pos[x] + 1:]
        else:
            pos[x] = len(stack)
            stack.append(x)
    if best is None:
        raise AssertionError("closed walk contained no cycle of requested parity")
    return best


def _meet_paths(u: int, w: int, parent: Sequence[int] | dict, depth: Sequence[int] | dict) -> list[int]:
    """Cycle through edge (u, w) and the two tree paths to their meeting
    point, as a vertex list in cycle order."""
    pu, pw = u, w
    path_u, path_w = [pu], [pw]
    while depth[pu] > depth[pw]:
        pu = parent[pu]
        path_u.append(pu)
    while depth[pw] > depth[pu]:
        pw = parent[pw]
        path_w.append(pw)
    while pu != pw:
        pu, pw = parent[pu], parent[pw]
        path_u.append(pu)
        path_w.append(pw)
    # path_u ends at the meeting point; keep it once.
    return path_u + list(reversed(path_w[:-1]))


def is_bipartite(g: Graph) -> tuple[bool, list[int]]:
    """Return (True, proper 2-coloring) or (False, odd cycle witness)."""
    color = [-1] * g.n
    parent = [-1] * g.n
    depth = [0] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, _meet_paths(u, w, parent, depth)
    return True, color


def is_acyclic_undirected(g: Graph) -> tuple[bool, list[int] | None]:
    """Return (True, None) or (False, cycle witness)."""
    parent = [-1] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif parent[u] != w:
                    cycle = _meet_paths(u, w, parent, depth)
                    if len(cycle) >= 3:
                        return False, cycle
    return True, None


def is_acyclic_directed(d: Digraph) -> tuple[bool, list[int] | None]:
    """Return (True, topological order) or (False, directed cycle witness)."""
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
    # Every vertex with remaining in-degree has a predecessor among them;
    # walking predecessors must repeat, closing a directed cycle.
    leftovers = {v for v in range(d.n) if indeg[v] > 0}
    v = min(leftovers)
    seen: dict[int, int] = {}
    walk = []
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = min(u for u in d.predecessors(v) if u in leftovers)
    cycle = walk[seen[v]:]
    cycle.reverse()  # the predecessor walk runs against the arcs
    return False, cycle


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


def _verify_peo(g: Graph, elim: Sequence[int]) -> tuple[bool, tuple[int, int, int] | None]:
    """Check a perfect elimination order.  On failure return (v, p, w):
    p, w are later neighbors of v with p earliest, and p, w non-adjacent."""
    position = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        if not later:
            continue
        p = min(later, key=position.__getitem__)
        for w in later:
            if w != p and not g.has_edge(p, w):
                return False, (v, p, w)
    return True, None


def _hole_through(g: Graph, u: int, p: int, q: int) -> list[int] | None:
    """Hop-shortest p..q path avoiding N[u] - {p, q}; closing it through u
    gives a chordless cycle of length >= 4.  None if p, q disconnected."""
    banned = set(g.neighbors(u)) | {u}
    banned.discard(p)
    banned.discard(q)
    prev = {p: -1}
    queue = deque([p])
    while queue:
        x = queue.popleft()
        if x == q:
            path = []
            while x != -1:
                path.append(x)
                x = prev[x]
            path.reverse()
            return [u] + path
        for y in g.neighbors(x):
            if y not in banned and y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def shortest_hole(g: Graph) -> list[int] | None:
    """Shortest chordless cycle of length >= 4, or None if chordal.

    Scans centers u and non-adjacent neighbor pairs (p, q); a hop-shortest
    p..q path outside N[u] closes into an induced cycle through u.  Every
    hole is found this way from any of its vertices as the center.
    """
    best: list[int] | None = None
    for u in range(g.n):
        nbrs = g.neighbors(u)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                p, q = nbrs[i], nbrs[j]
                if g.has_edge(p, q):
                    continue
                hole = _hole_through(g, u, p, q)
                if hole is not None and (best is None or len(hole) < len(best)):
                    best = hole
    return best


def is_chordal(g: Graph) -> tuple[bool, list[int]]:
    """Return (True, perfect elimination order) or (False, hole witness).

    The reverse of a LexBFS order is a perfect elimination order exactly
    on chordal graphs.  On verification failure the failure triple seeds
    a BFS hole search, with a full scan as fallback.
    """
    elim = list(reversed(lexbfs_order(g)))
    ok, triple = _verify_peo(g, elim)
    if ok:
        return True, elim
    if triple is None:
        raise AssertionError("PEO verification failed without a witness triple")
    v, p, w = triple
    hole = _hole_through(g, v, p, w)
    if hole is None:
        hole = shortest_hole(g)
    if hole is None:
        raise AssertionError("PEO verification failed on a chordal graph")
    return False, hole


def _odd_closed_walk(s: int, succ: Callable[[int], Sequence[int]]) -> list[int] | None:
    """A shortest odd closed walk through s, as a vertex sequence with
    walk[0] == walk[-1] == s; None if there is none.

    BFS on the parity-labelled double cover: a step u -> w (w in
    succ(u)) connects state (u, a) to (w, 1-a); an odd closed walk
    through s is a path from (s, 0) to (s, 1).
    """
    prev: dict[tuple[int, int], tuple[int, int] | None] = {(s, 0): None}
    queue = deque([(s, 0)])
    while queue:
        u, a = queue.popleft()
        for w in succ(u):
            state = (w, 1 - a)
            if state not in prev:
                prev[state] = (u, a)
                if state == (s, 1):
                    walk = []
                    cur: tuple[int, int] | None = state
                    while cur is not None:
                        walk.append(cur[0])
                        cur = prev[cur]
                    walk.reverse()
                    return walk
                queue.append(state)
    return None


def is_odd_dicycle_free(d: Digraph) -> tuple[bool, list[int] | None]:
    """Return (True, None) or (False, odd directed cycle witness)."""
    cycle = shortest_odd_dicycle(d)
    return cycle is None, cycle


def shortest_cycle(g: Graph) -> list[int] | None:
    """A shortest cycle (vertex list), or None if the graph is a forest."""
    best: list[int] | None = None
    for root in range(g.n):
        parent = {root: -1}
        depth = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * depth[u] + 1 > len(best):
                break
            for w in g.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif parent[u] != w:
                    cycle = _meet_paths(u, w, parent, depth)
                    if len(cycle) >= 3 and (best is None or len(cycle) < len(best)):
                        best = cycle
    return best


def shortest_odd_cycle(g: Graph) -> list[int] | None:
    """A shortest odd cycle, or None if the graph is bipartite."""
    best: list[int] | None = None
    for s in range(g.n):
        walk = _odd_closed_walk(s, g.neighbors)
        if walk is not None and (best is None or len(walk) - 1 <= len(best)):
            cand = _cycle_from_walk(walk, want_odd=True)
            if best is None or len(cand) < len(best):
                best = cand
    return best


def shortest_dicycle(d: Digraph) -> list[int] | None:
    """A shortest directed cycle, or None if the digraph is acyclic."""
    best: list[int] | None = None
    for s in range(d.n):
        prev = {s: -1}
        queue = deque([s])
        hit = None
        while queue and hit is None:
            u = queue.popleft()
            for w in d.successors(u):
                if w == s:
                    hit = u
                    break
                if w not in prev:
                    prev[w] = u
                    queue.append(w)
        if hit is not None:
            path = []
            x = hit
            while x != -1:
                path.append(x)
                x = prev[x]
            path.reverse()
            if best is None or len(path) < len(best):
                best = path
    return best


def shortest_odd_dicycle(d: Digraph) -> list[int] | None:
    """A shortest simple odd directed cycle, extracted from the shortest
    odd closed walk; None if the digraph has no odd directed cycle."""
    walk: list[int] | None = None
    for s in range(d.n):
        cand = _odd_closed_walk(s, d.successors)
        if cand is not None and (walk is None or len(cand) < len(walk)):
            walk = cand
    if walk is None:
        return None
    return _cycle_from_walk(walk, want_odd=True)
