"""Test-only reference for ``essentia.recognize.shortest_cycle``: the
version that builds every cycle it meets.  Each root's BFS keeps parent
and depth in dicts, and every non-tree edge is turned into its vertex
list by ``_meet_paths`` before its length is compared.
``essentia.recognize`` measures a cycle first and builds only one that
beats the incumbent, and must return exactly this list, so this stays
here as the plain statement of that behaviour.  Nothing under ``src/``
imports this module.
"""
from __future__ import annotations

from collections import deque

from essentia.graphs import Graph


def _meet_paths(u: int, w: int, parent: dict[int, int], depth: dict[int, int]) -> list[int]:
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


def reference_shortest_cycle(g: Graph, floor: int = 0) -> list[int] | None:
    """A shortest cycle (vertex list), or None if the graph is a forest."""
    best: list[int] | None = None
    for root in range(g.n):
        if best is not None and len(best) <= floor:
            break
        if not g.neighbors(root):
            continue
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
