"""The six vertex-deletion problems: target classes, recognizers, and
the shortest forbidden structures the branching solvers pivot on.  A
recognizer's "no" witness is its problem's ``forbidden_structure(g)``."""
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
