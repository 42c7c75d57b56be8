"""Test-only reference for the branching layer: the plain exhaustive
branching solver that rebuilds and renumbers the graph
(``delete_renumbered``) at every node, and the detection-driven loop
that runs one full search per schedule triple.  ``essentia.solve`` must
agree with it on every optimum size and on every attempt outcome, so it
stays here as the slow, obviously-correct statement of that behaviour.
Nothing under ``src/`` imports this module.
"""
from __future__ import annotations

from typing import Iterable

from essentia.detect import detector_factory
from essentia.graphs import Digraph, Graph, GraphError
from essentia.problems import PROBLEMS, Problem
from essentia.solve import MetaAttempt, MetaResult, MetaTriple, Solution


def delete_renumbered(g: Graph | Digraph, xs: Iterable[int]):
    """Return (g - xs, remap): a fresh, validated graph on the surviving
    vertices renumbered 0.. in order, and the old-id -> new-id remap."""
    removed = set(xs)
    for x in removed:
        if not (0 <= x < g.n):
            raise GraphError(f"vertex id {x} out of range")
    keep = [v for v in range(g.n) if v not in removed]
    remap = {old: new for new, old in enumerate(keep)}
    pairs = g.edges() if isinstance(g, Graph) else g.arcs()
    kept = [
        (remap[u], remap[v]) for u, v in pairs
        if u not in removed and v not in removed
    ]
    return type(g)(len(keep), kept), remap


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
        child, remap = delete_renumbered(h, [w])
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
        residual, remap = delete_renumbered(g, triple.selected)
        sol, nodes = reference_budgeted_solve(problem, residual, triple.budget)
        success = sol is not None and len(sol) == triple.budget
        attempts.append(MetaAttempt(triple.k, triple.budget, nodes, success))
        if success:
            inv = {new: old for old, new in remap.items()}
            vertices = frozenset(triple.selected) | {inv[x] for x in sol}
            return MetaResult(Solution(problem, vertices), tuple(schedule), tuple(attempts))
    raise AssertionError("reference loop failed to terminate by k = optimum")
