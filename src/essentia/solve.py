"""Exact budgeted branching solvers and the detection-driven loop that
reaches a provably optimal solution while branching only over the
non-essential part of the budget.

The loop runs the problem's detector at k = 0, 1, ..., each on reaching
k, and hands the residual G - S_k with leftover budget k - |S_k| (when
non-negative) straight to the branching solver.  Every bar is
non-decreasing in k, so S_k only shrinks and k order is leftover order.
The first run that spends its leftover exactly is optimal whatever the
bars do: below opt it would give a deletion set of k < opt vertices, and
at k = opt G1 puts S_k inside an optimum.  The residual keeps the vertex
ids of G (``delete_vertices``), so S_k is added back with no translation.

The branching solver is a branch-and-bound that still returns the exact
minimum within budget.  It isolates the branched vertex (``isolate``,
the unchecked one-vertex step of ``delete_vertices``).  At each
node a greedy packing of vertex-disjoint forbidden structures, starting
with the node's own structure, bounds the minimum from below; when the
packing fits the budget and the problem has a ``lower_bound`` (fvs's
cyclomatic bound), the bound is the larger of the two.  The node fails
when the bound exceeds the budget, and returns as soon as a child's set
meets it.  After each solution the budget drops to one below its
size, so later children search for smaller sets only.

Floor.  Isolating vertices never shortens a shortest forbidden
structure, so the structure of a node bounds from below the structure
of each child, and each structure a packing isolates bounds the next
one.  Each search gets that length as its floor and stops its scan once
its incumbent reaches it; with the floor at most the true minimum it
returns what it returns without one, so the memo stays valid.

Memo.  A node's graph is the solver's input with the vertices of a
bitmask isolated; isolate commutes, so equal masks mean equal graphs.
A dict from mask to forbidden structure runs each structure search once
per distinct graph, and the packing isolates its structures only when a
lookup misses.  meta_solve keeps one residual and its memo live, rebuilt
only when S_k changes, so its attempts at budgets b, b + 1, ... on one
residual reuse the searches of the ones before.  The memo lives for one call.
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
    """meta_solve's answer.  schedule holds one triple per attempt, in k
    order, up to and including the successful one."""

    solution: Solution
    schedule: tuple[MetaTriple, ...]
    attempts: tuple[MetaAttempt, ...]

    @property
    def solver_nodes(self) -> int:
        return sum(a.nodes for a in self.attempts)

    @property
    def max_budget_attempted(self) -> int:
        return max(a.budget for a in self.attempts)


def _packing_bound(
    prob: Problem, h: Graph | Digraph, mask: int, structure: list[int],
    cap: int, memo: dict,
) -> int:
    """Size of a greedy packing of vertex-disjoint forbidden structures of
    h that starts with structure; stops counting at cap + 1.

    Every deletion set hits each structure of the packing, so its size is
    a lower bound on the minimum.  For vc the packing is a greedy matching.
    h is the root graph with the vertices of mask isolated; the packed
    structures are isolated only when the memo misses.  Each search gets
    the length of the structure packed before it as its floor.
    """
    size = 1
    pending: list[int] = []
    while size <= cap:
        pending += structure
        for v in structure:
            mask |= 1 << v
        if mask not in memo:
            for v in pending:
                h = isolate(h, v)
            pending.clear()
            memo[mask] = prob.forbidden_structure(h, len(structure))
        structure = memo[mask]
        if structure is None:
            break
        size += 1
    return size


def _branch(
    prob: Problem, h: Graph | Digraph, mask: int, b: int, nodes: list[int],
    memo: dict, floor: int = 0,
) -> list[int] | None:
    """Minimum deletion set of h within budget b, or None; counts its
    branching-tree nodes into nodes[0].  h is the root graph with the
    vertices of mask isolated, and floor the length of its parent's
    structure."""
    nodes[0] += 1
    if mask not in memo:
        memo[mask] = prob.forbidden_structure(h, floor)
    structure = memo[mask]
    if structure is None:
        return []
    bound = _packing_bound(prob, h, mask, structure, b, memo)
    if bound <= b and prob.lower_bound is not None:
        bound = max(bound, prob.lower_bound(h))
    if bound > b:
        return None
    best: list[int] | None = None
    for w in structure:
        sub = _branch(prob, isolate(h, w), mask | 1 << w, b - 1, nodes, memo,
                      len(structure))
        if sub is not None:
            best = [w] + sub
            if len(best) == bound:
                return best
            # Search the remaining children for strictly smaller sets only.
            b = len(best) - 1
    return best


def exact_budgeted_solve(
    problem: str, g: Graph | Digraph, budget: int, memo: dict | None = None
) -> tuple[list[int] | None, int]:
    """Minimum deletion set if one of size <= budget exists, else None;
    also returns the branching-tree node count.

    Branches on the vertices of a shortest forbidden structure; every
    feasible solution must hit it, so the search is complete.  A subtree
    is cut only when a packing of disjoint structures shows that it holds
    no set within its budget, or no set smaller than the best one found,
    so by induction the result is a true minimum within budget.

    memo maps the bitmask of isolated vertices to the forbidden structure
    of g with those vertices isolated.  It belongs to g: pass one dict
    only to calls on equal graphs.  Without it, the call starts a fresh one.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    prob = PROBLEMS[problem]
    prob.check_graph(g)
    nodes = [0]
    memo = {} if memo is None else memo
    return _branch(prob, g, 0, budget, nodes, memo), nodes[0]


def meta_solve(problem: str, g: Graph | Digraph) -> MetaResult:
    """Optimal deletion set via detection-then-branching."""
    prob = PROBLEMS[problem]
    detector = detector_factory(problem, g)
    schedule, attempts = [], []
    selected = None
    for k in range(g.n + 1):
        chosen = detector(k).vertices
        budget = k - len(chosen)
        if budget < 0:
            # The detector may select more than k vertices when k is below
            # the optimum; such triples can never spend their budget exactly.
            continue
        if chosen != selected:
            selected = chosen
            residual, memo = delete_vertices(g, selected), {}
        schedule.append(MetaTriple(k, selected, budget))
        sol, nodes = exact_budgeted_solve(problem, residual, budget, memo)
        success = sol is not None and len(sol) == budget
        attempts.append(MetaAttempt(k, budget, nodes, success))
        if success:
            vertices = selected | frozenset(sol)
            if not prob.in_class(delete_vertices(g, vertices)):
                raise AssertionError("combined solution fails the recognizer")
            return MetaResult(
                Solution(problem, vertices), tuple(schedule), tuple(attempts)
            )
    raise AssertionError("loop failed to terminate by k = optimum")
