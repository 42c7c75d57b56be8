"""Test-only reference for ``essentia.flows.min_vertex_separator``: the
capacity-network statement of the same Menger kernel.  Every vertex w is
split into w_in -> w_out with capacity one, arcs get effectively infinite
capacity, and each augmenting BFS walks the residual dicts in their
insertion order.  ``essentia.flows`` keeps only the path system and must
return exactly this ``SeparatorResult``, so this stays here as the slow,
obviously-correct statement of that behaviour.  Nothing under ``src/``
imports this module.
"""
from __future__ import annotations

from collections import deque

from essentia.flows import SeparatorResult, SeparatorUndefined, _verify
from essentia.graphs import Digraph


def _bfs_augment(cap: list[dict[int, int]], s: int, t: int) -> dict[int, int]:
    """One BFS in the residual network; augments one unit along the path
    found and returns the predecessor map.  When t is not in the map no
    path exists, and its keys are exactly the vertices reachable from s."""
    prev = {s: -1}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            break
        for w, c in cap[u].items():
            if c > 0 and w not in prev:
                prev[w] = u
                queue.append(w)
    if t in prev:
        x = t
        while x != s:
            p = prev[x]
            cap[p][x] -= 1
            cap[x][p] = cap[x].get(p, 0) + 1
            x = p
    return prev


def min_vertex_separator(d: Digraph, s: int, t: int) -> SeparatorResult:
    """Minimum s-t vertex separator (excluding s, t) plus a maximum system
    of internally vertex-disjoint s->t paths of the same cardinality;
    for s == t the paths are directed cycles s..s through s."""
    if d.has_arc(s, t):
        raise SeparatorUndefined(f"arc ({s}, {t}) present: separator undefined")
    n = d.n
    big = n + 1  # effectively infinite for unit-capacity flows

    def v_in(w: int) -> int:
        return 2 * w

    def v_out(w: int) -> int:
        return 2 * w + 1

    cap: list[dict[int, int]] = [dict() for _ in range(2 * n)]
    for w in range(n):
        cap[v_in(w)][v_out(w)] = 1
    for u, w in d.arcs():
        cap[v_out(u)][v_in(w)] = big
    source, sink = v_out(s), v_in(t)

    flow = 0
    while sink in (reach := _bfs_augment(cap, source, sink)):
        flow += 1
        if flow > n:
            raise AssertionError("flow exceeded vertex count")

    # Min cut: split arcs leaving the last search's reachable set.
    separator = frozenset(
        w for w in range(n) if v_in(w) in reach and v_out(w) not in reach
    )

    # Paths: arc u -> w carries flow exactly when its residual capacity
    # dropped below big; unit vertex capacities leave every vertex other
    # than s and t on at most one path, so each step has one successor.
    def flow_successors(u: int) -> list[int]:
        return [w for w in d.successors(u) if cap[v_out(u)][v_in(w)] < big]

    paths = []
    for w in flow_successors(s):
        path = [s, w]
        while path[-1] != t:
            (nxt,) = flow_successors(path[-1])
            path.append(nxt)
        paths.append(tuple(path))

    result = SeparatorResult(separator, tuple(paths))
    _verify(d, s, t, result)
    return result
