"""The six vertex-deletion problems: target classes, recognizers, and
the shortest forbidden structures the branching solvers pivot on.  A
recognizer's "no" witness is its problem's ``forbidden_structure(g)``.
An optional ``lower_bound(g)`` bounds the minimum deletion set from
below for the branching solver; only fvs has one, the cyclomatic bound."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import recognize
from .graphs import Digraph, Graph


@dataclass(frozen=True)
class Problem:
    id: str
    c: int  # detection coefficient
    directed: bool
    in_class: Callable[[Graph | Digraph], bool]
    # (graph, floor) -> a shortest forbidden structure; floor is a length
    # the caller knows it cannot go below (recognize's module docstring).
    forbidden_structure: Callable[[Graph | Digraph, int], list[int] | None]
    # graph -> at most the size of its minimum deletion set, or None.
    lower_bound: Callable[[Graph | Digraph], int] | None = None

    def check_graph(self, g: Graph | Digraph) -> None:
        """Raise TypeError unless g has this problem's directedness."""
        if isinstance(g, Digraph) != self.directed:
            kind = "directed" if self.directed else "undirected"
            raise TypeError(f"expected {kind} graph for {self.id}")


def _first_edge(g: Graph, floor: int = 0) -> list[int] | None:
    """The first edge; every edge is shortest, so floor is unused."""
    for u in range(g.n):
        nbrs = g.neighbors(u)
        if nbrs:
            return [u, nbrs[0]]
    return None


def core_degrees(g: Graph) -> list[int]:
    """Each vertex's degree in the 2-core of g, 0 for a vertex off it:
    vertices of degree at most one are peeled until none is left."""
    adj = g.adjacency
    deg = [len(row) for row in adj]
    leaves = [v for v in range(g.n) if deg[v] == 1]
    for v in leaves:  # leaves grows while it is read
        deg[v] = 0
        for w in adj[v]:
            if deg[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    return deg


def cyclomatic_bound(g: Graph) -> int:
    """The fewest vertices whose (degree - 1) values in the 2-core, largest
    first, add up to the cycle rank, which peeling leaves as it is.
    Deleting a vertex of degree d lowers the rank by at most d - 1, so
    every feedback vertex set has at least this many vertices."""
    mu = recognize.cycle_rank(g)
    drops = sorted([d - 1 for d in core_degrees(g) if d], reverse=True)
    k = 0
    while mu > 0:
        mu -= drops[k]
        k += 1
    return k


PROBLEMS: dict[str, Problem] = {
    "vc": Problem(
        "vc", 2, False,
        in_class=lambda g: g.m == 0,
        forbidden_structure=_first_edge,
    ),
    "fvs": Problem(
        "fvs", 2, False,
        in_class=lambda g: recognize.is_acyclic_undirected(g)[0],
        forbidden_structure=recognize.shortest_cycle,
        lower_bound=cyclomatic_bound,
    ),
    "dfvs": Problem(
        "dfvs", 2, True,
        in_class=lambda d: recognize.is_acyclic_directed(d)[0],
        forbidden_structure=recognize.shortest_dicycle,
    ),
    "oct": Problem(
        "oct", 2, False,
        in_class=lambda g: recognize.is_bipartite(g)[0],
        forbidden_structure=recognize.shortest_odd_cycle,
    ),
    "doct": Problem(
        "doct", 3, True,
        in_class=lambda d: recognize.is_odd_dicycle_free(d)[0],
        forbidden_structure=recognize.shortest_odd_dicycle,
    ),
    "cvd": Problem(
        "cvd", 13, False,
        in_class=lambda g: recognize.is_chordal(g)[0],
        forbidden_structure=recognize.shortest_hole,
    ),
}

PROBLEM_IDS = tuple(PROBLEMS)
