"""Exact budgeted branching solvers and the detection-driven loop that
reaches a provably optimal solution while branching only over the
non-essential part of the budget.

The loop runs the problem's detector for every budget k from 0 to n,
forms triples (residual graph, selected set S_k, leftover budget
k - |S_k|), discards negative leftovers, sorts by leftover, and hands
each residual instance to the branching solver.  The residual G - S_k
keeps the vertex ids of G (``delete_vertices``), so the first run that
spends its leftover exactly yields an optimal solution of the original
graph once S_k is added back, with no translation.

The branching solver is a branch-and-bound that still returns the exact
minimum within budget.  It isolates the branched vertex (``isolate``,
the unchecked one-vertex step of ``delete_vertices``).  At each
node a greedy packing of vertex-disjoint forbidden structures, starting
with the node's own structure, bounds the minimum from below: the node
fails when the packing exceeds the budget, and returns as soon as a
child's set meets the bound.  After each solution the budget drops to
one below its size, so later children search for smaller sets only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .detect import detector_factory
from .graphs import Digraph, Graph, delete_vertices, isolate
from .problems import PROBLEMS, Problem


@dataclass(frozen=True)
class Solution:
    problem: str
    vertices: frozenset[int]


@dataclass(frozen=True)
class MetaTriple:
    k: int
    selected: frozenset[int]
    budget: int


@dataclass(frozen=True)
class MetaAttempt:
    k: int
    budget: int
    nodes: int
    success: bool


@dataclass(frozen=True)
class MetaResult:
    solution: Solution
    schedule: tuple[MetaTriple, ...]
    attempts: tuple[MetaAttempt, ...]

    @property
    def solver_nodes(self) -> int:
        return sum(a.nodes for a in self.attempts)

    @property
    def max_budget_attempted(self) -> int:
        return max(a.budget for a in self.attempts)


def _packing_bound(prob: Problem, h: Graph | Digraph, structure: list[int], cap: int) -> int:
    """Size of a greedy packing of vertex-disjoint forbidden structures of
    h that starts with structure; stops counting at cap + 1.

    Every deletion set hits each structure of the packing, so its size is
    a lower bound on the minimum.  For vc the packing is a greedy matching.
    """
    size = 1
    while size <= cap:
        for v in structure:
            h = isolate(h, v)
        structure = prob.forbidden_structure(h)
        if structure is None:
            break
        size += 1
    return size


def _branch(prob: Problem, h: Graph | Digraph, b: int, nodes: list[int]) -> list[int] | None:
    """Minimum deletion set of h within budget b, or None; counts its
    branching-tree nodes into nodes[0]."""
    nodes[0] += 1
    structure = prob.forbidden_structure(h)
    if structure is None:
        return []
    bound = _packing_bound(prob, h, structure, b)
    if bound > b:
        return None
    best: list[int] | None = None
    for w in structure:
        sub = _branch(prob, isolate(h, w), b - 1, nodes)
        if sub is not None:
            best = [w] + sub
            if len(best) == bound:
                return best
            # Search the remaining children for strictly smaller sets only.
            b = len(best) - 1
    return best


def exact_budgeted_solve(
    problem: str, g: Graph | Digraph, budget: int
) -> tuple[list[int] | None, int]:
    """Minimum deletion set if one of size <= budget exists, else None;
    also returns the branching-tree node count.

    Branches on the vertices of a shortest forbidden structure; every
    feasible solution must hit it, so the search is complete.  A subtree
    is cut only when a packing of disjoint structures shows that it holds
    no set within its budget, or no set smaller than the best one found,
    so by induction the result is a true minimum within budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    prob = PROBLEMS[problem]
    prob.check_graph(g)
    nodes = [0]
    return _branch(prob, g, budget, nodes), nodes[0]


def meta_solve(problem: str, g: Graph | Digraph) -> MetaResult:
    """Optimal deletion set via detection-then-branching."""
    prob = PROBLEMS[problem]
    detector = detector_factory(problem, g)
    schedule = []
    for k in range(g.n + 1):
        selected = detector(k).vertices
        budget = k - len(selected)
        if budget < 0:
            # The detector may select more than k vertices when k is below
            # the optimum; such triples can never spend their budget exactly.
            continue
        schedule.append(MetaTriple(k, selected, budget))
    schedule.sort(key=lambda t: (t.budget, t.k))

    attempts = []
    for triple in schedule:
        residual = delete_vertices(g, triple.selected)
        sol, nodes = exact_budgeted_solve(problem, residual, triple.budget)
        success = sol is not None and len(sol) == triple.budget
        attempts.append(MetaAttempt(triple.k, triple.budget, nodes, success))
        if success:
            vertices = triple.selected | frozenset(sol)
            if not prob.in_class(delete_vertices(g, vertices)):
                raise AssertionError("combined solution fails the recognizer")
            return MetaResult(
                Solution(problem, vertices), tuple(schedule), tuple(attempts)
            )
    raise AssertionError("loop failed to terminate by k = optimum")
