"""Minimum vertex separators with dual vertex-disjoint path systems.

The flow is the path system itself: into[w] and out[w] are w's
neighbours on its path, or -1 when w is on no path.  Each augmenting BFS
runs over the states 2w (w's in-copy) and 2w + 1 (its out-copy) and
reads its moves off the links.  From an out-copy it moves to the in-copy
of every successor, in ``d.successors`` order, then, when w is on a
path, back to w's own in-copy.  From an in-copy it moves through to w's
out-copy when w is free, else back to the out-copy of into[w].  These
are the positive residual arcs of the network that splits each w into
w_in -> w_out of capacity one, in the order its residual dicts yield
them, so the searches, the separator and the paths are that network's.
An augmenting path links u -> w for each arc it takes forward and
unlinks w where it steps from w's out-copy back into its in-copy; those
two steps rewrite every link it passes.  The minimum cut is read off the
last, failed search: the in-copies it reached whose out-copies it did
not; its size, checked on construction, is the number of paths.
For s == t the paths are directed cycles through s that meet only at s.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Digraph


class SeparatorUndefined(ValueError):
    """Raised when the arc (s, t) is present, so no separator exists."""


@dataclass(frozen=True)
class SeparatorResult:
    separator: frozenset[int]
    paths: tuple[tuple[int, ...], ...]  # s..t vertex sequences (s..s cycles)

    @property
    def size(self) -> int:
        return len(self.separator)


def min_vertex_separator(d: Digraph, s: int, t: int) -> SeparatorResult:
    """Minimum s-t vertex separator (excluding s, t) plus a maximum system
    of internally vertex-disjoint s->t paths of the same cardinality;
    for s == t the paths are directed cycles s..s through s."""
    if d.has_arc(s, t):
        raise SeparatorUndefined(f"arc ({s}, {t}) present: separator undefined")
    n = d.n
    into, out = [-1] * n, [-1] * n
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        reach = {source: -1}  # state -> the state the search came from
        queue = deque([source])
        while queue:
            x = queue.popleft()
            if x == sink:
                break
            w = x >> 1
            if x & 1:
                moves = [2 * y for y in d.successors(w)]
                if into[w] != -1:
                    moves.append(x - 1)
            else:
                moves = (x + 1 if into[w] == -1 else 2 * into[w] + 1,)
            for y in moves:
                if y not in reach:
                    reach[y] = x
                    queue.append(y)
        if sink not in reach:
            break
        flow += 1
        if flow > n:
            raise AssertionError("flow exceeded vertex count")
        x = sink
        while x != source:
            p = reach[x]
            if p & 1:  # from u's out-copy into w's in-copy
                u, w = p >> 1, x >> 1
                if u == w:  # backed through w, which leaves its path
                    into[w] = out[w] = -1
                else:
                    out[u], into[w] = w, u
            x = p
        into[t] = -1  # so that, for s == t, s's out-copy is not on a path

    separator = frozenset(w for w in range(n) if 2 * w in reach and 2 * w + 1 not in reach)
    paths = []
    for w in d.successors(s):
        if into[w] == s:
            path = [s, w]
            while path[-1] != t:
                path.append(out[path[-1]])
            paths.append(tuple(path))

    result = SeparatorResult(separator, tuple(paths))
    _verify(d, s, t, result)
    return result


def _verify(d: Digraph, s: int, t: int, result: SeparatorResult) -> None:
    sep = result.separator
    if s in sep or t in sep:
        raise AssertionError("separator contains a terminal")
    if len(sep) != len(result.paths):
        raise AssertionError("Menger equality violated")
    seen_internal = {s, t}  # no path passes through a terminal
    for path in result.paths:
        if path[0] != s or path[-1] != t:
            raise AssertionError("path endpoints wrong")
        for a, b in zip(path, path[1:]):
            if not d.has_arc(a, b):
                raise AssertionError(f"path uses missing arc ({a}, {b})")
        internal = set(path[1:-1])
        if len(internal) != len(path) - 2 or internal & seen_internal:
            raise AssertionError("paths not internally vertex-disjoint")
        seen_internal |= internal
    # The separator must disconnect s from t (for s == t: s from itself).
    reach: set[int] = set()
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in d.successors(u):
            if w not in sep and w not in reach:
                reach.add(w)
                queue.append(w)
    if t in reach:
        raise AssertionError("separator does not disconnect the terminals")
