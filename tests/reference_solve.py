"""Test-only reference for the branching layer: the plain exhaustive
branching solver that rebuilds the graph with ``delete_vertices`` at
every node, and the detection-driven loop that runs one full search per
schedule triple.  ``essentia.solve`` must agree with it on every optimum
size and on every attempt outcome, so it stays here as the slow,
obviously-correct statement of that behaviour.  Nothing under ``src/``
imports this module.
"""
from __future__ import annotations

from essentia.detect import detector_factory
from essentia.graphs import Digraph, Graph, delete_vertices
from essentia.problems import PROBLEMS, Problem
from essentia.solve import MetaAttempt, MetaResult, MetaTriple, Solution


def _branch(prob: Problem, h: Graph | Digraph, b: int, nodes: list[int]) -> list[int] | None:
    """Minimum deletion set of h within budget b, or None; counts its
    branching-tree nodes into nodes[0]."""
    nodes[0] += 1
    structure = prob.forbidden_structure(h)
    if structure is None:
        return []
    if b == 0:
        return None
    best: list[int] | None = None
    for w in structure:
        child, remap = delete_vertices(h, [w])
        sub = _branch(prob, child, b - 1, nodes)
        if sub is not None:
            inv = {new: old for old, new in remap.items()}
            cand = [w] + [inv[x] for x in sub]
            if best is None or len(cand) < len(best):
                best = cand
    return best


def reference_budgeted_solve(
    problem: str, g: Graph | Digraph, budget: int
) -> tuple[list[int] | None, int]:
    """Minimum deletion set within budget, or None, and the node count."""
    nodes = [0]
    return _branch(PROBLEMS[problem], g, budget, nodes), nodes[0]


def reference_meta_solve(problem: str, g: Graph | Digraph) -> MetaResult:
    """The detection-driven loop with one full search per triple."""
    detector = detector_factory(problem, g)
    schedule = []
    for k in range(g.n + 1):
        selected = detector(k).vertices
        if k - len(selected) >= 0:
            schedule.append(MetaTriple(k, selected, k - len(selected)))
    schedule.sort(key=lambda t: (t.budget, t.k))
    attempts = []
    for triple in schedule:
        residual, remap = delete_vertices(g, triple.selected)
        sol, nodes = reference_budgeted_solve(problem, residual, triple.budget)
        success = sol is not None and len(sol) == triple.budget
        attempts.append(MetaAttempt(triple.k, triple.budget, nodes, success))
        if success:
            inv = {new: old for old, new in remap.items()}
            vertices = frozenset(triple.selected) | {inv[x] for x in sol}
            return MetaResult(Solution(problem, vertices), tuple(schedule), tuple(attempts))
    raise AssertionError("reference loop failed to terminate by k = optimum")
