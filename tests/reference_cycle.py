"""Test-only references for ``essentia.recognize``'s undirected cycle
searches.

``reference_shortest_cycle`` is the version of ``shortest_cycle`` that
builds every cycle it meets.  Each root's BFS keeps parent and depth in
dicts, and every non-tree edge is turned into its vertex list by
``_meet_paths`` before its length is compared.  ``essentia.recognize``
measures a cycle first and builds only one that beats the incumbent, and
must return exactly this list, so this stays here as the plain statement
of that behaviour.

``reference_shortest_odd_cycle`` is an independent odd-cycle search: a
BFS per root over (vertex, parity) states for a shortest odd closed
walk, from which an odd simple cycle is split off.  It need not return
the same cycle as ``shortest_odd_cycle``, only one of the same length.

Nothing under ``src/`` imports this module.
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


def _odd_cycle_in_walk(walk: list[int]) -> list[int]:
    """A shortest odd simple cycle of a closed odd walk (walk[0] ==
    walk[-1]): a simple cycle is split off whenever a vertex repeats, and
    the walk's edges decompose into those cycles, so one of them is odd."""
    stack: list[int] = []
    best: list[int] | None = None
    for x in walk:
        if x in stack:
            i = stack.index(x)
            cycle = stack[i:]
            if len(cycle) % 2 == 1 and (best is None or len(cycle) < len(best)):
                best = cycle
            del stack[i + 1:]
        else:
            stack.append(x)
    if best is None:
        raise AssertionError("closed walk contained no odd cycle")
    return best


def reference_shortest_odd_cycle(g: Graph, floor: int = 0) -> list[int] | None:
    """A shortest odd cycle, or None if the graph is bipartite."""
    best: list[int] | None = None
    for s in range(g.n):
        if best is not None and len(best) <= floor:
            break
        # The walk from state (s, 0) to (s, 1) flips parity at every edge.
        prev: dict[tuple[int, int], tuple[int, int] | None] = {(s, 0): None}
        queue = deque([(s, 0)])
        while queue and (s, 1) not in prev:
            v, bit = queue.popleft()
            for w in g.neighbors(v):
                if (w, bit ^ 1) not in prev:
                    prev[(w, bit ^ 1)] = (v, bit)
                    queue.append((w, bit ^ 1))
        if (s, 1) not in prev:
            continue
        walk = []
        state: tuple[int, int] | None = (s, 1)
        while state is not None:
            walk.append(state[0])
            state = prev[state]
        cycle = _odd_cycle_in_walk(walk)
        if best is None or len(cycle) < len(best):
            best = cycle
    return best
