"""Packings of T-paths (paths with at least one edge and both endpoints
in a terminal set T) via reductions to maximum matching.

Both reductions number their auxiliary vertices one way: vertex v of G
owns the slots 2v (v itself) and 2v + 1 (its copy), so x >> 1 is the
vertex of slot x and x ^ 1 is its other slot.  Each non-terminal with an
edge has its copy joined to it: the copy pairs P.  Every other slot (a
terminal's 2t + 1, both slots of an isolated non-terminal, which lies
on no T-path) stays isolated, and the matcher starts no search there.
Each edge uw joins 2u to 2w and, if both have a copy, copy to copy.

Odd packing: that is the whole graph, G plus a copy of G - T.  Odd
T-paths correspond to matchings that alternate between original and
copy edges.

Any-parity packing (Gallai): each copy is also joined to the originals
of its neighbours, so each slot of u is joined to each slot of w.  A
maximum matching there exceeds |P| by exactly the maximum number of
vertex-disjoint T-paths.

``_pack`` builds either graph and reads the paths off M xor P for a
maximum matching M.  Only terminals are uncovered by P, so a component
of M xor P with one more M-edge than P-edges ends in two terminals and
passes each non-terminal once, through its copy pair: read through
x >> 1, it is a T-path.  A maximum M leaves no P-heavy component, since
one would augment M, so it has exactly |M| - |P| M-heavy components.
"""
from __future__ import annotations

from typing import Iterable

from .graphs import Graph
from .matching import max_matching_adj


def _aux_graph(g: Graph, T: frozenset[int], odd: bool) -> list[list[int]]:
    """The auxiliary graph on 2 * g.n slots, for odd or any-parity
    packing, as adjacency lists."""
    copied = [v not in T and len(row) > 0 for v, row in enumerate(g.adjacency)]
    # Each copy pair leads its two rows, so the matcher's greedy start
    # matches P first and leaves fewer search phases.
    adj: list[list[int]] = []
    for v, row in enumerate(g.adjacency):
        originals = [2 * w for w in row]
        twins = [2 * w + 1 for w in row if copied[w]]
        if not copied[v]:
            adj += [originals if odd else originals + twins, []]
        elif odd:
            adj += [[2 * v + 1] + originals, [2 * v] + twins]
        else:
            adj += [[2 * v + 1] + originals + twins, [2 * v] + twins + originals]
    return adj


def _pack(g: Graph, terminals: Iterable[int], odd: bool) -> tuple[tuple[int, ...], ...]:
    """Trace each M-heavy component of M xor P from its smaller
    terminal, and drop a trace that reaches an M-exposed copy (a
    component with as many P-edges as M-edges)."""
    T = frozenset(terminals)
    adj = _aux_graph(g, T, odd)
    mate = max_matching_adj(adj)
    nu = (len(mate) - mate.count(-1)) // 2
    count = nu - sum(1 for row in adj[1::2] if row)  # |P|: the paired copy slots
    if count < 0:
        raise AssertionError("matching smaller than the copy-pair baseline")
    paths = []
    for t in sorted(T):
        path = [t]
        y = mate[2 * t]
        # y is a slot of a non-terminal, a terminal, or -1 (t or the
        # last copy is M-exposed).
        while y >= 0 and y >> 1 not in T:
            path.append(y >> 1)
            y = mate[y ^ 1]
        if y < 0 or y >> 1 < t:  # or traced already from its smaller end
            continue
        paths.append((*path, y >> 1))
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
    return _pack(g, terminals, odd=False)


def max_odd_T_path_packing(g: Graph, terminals: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Maximum-cardinality packing of pairwise vertex-disjoint odd T-paths."""
    return _pack(g, terminals, odd=True)
