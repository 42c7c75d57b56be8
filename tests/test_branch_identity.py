"""The branch-and-bound solver against the plain branching reference in
``tests/reference_solve.py``, above the n <= 14 reach of the brute-force
oracle: same optimum sizes, same None verdicts, and the same attempt
sequence in the detection-driven loop."""
from __future__ import annotations

import pytest

from essentia.generate import gnp
from essentia.graphs import delete_vertices
from essentia.problems import PROBLEMS
from essentia.solve import exact_budgeted_solve, meta_solve
from reference_solve import reference_budgeted_solve, reference_meta_solve

# problem -> (smallest n, largest n, edge probability, directed); the
# reference explores a full tree, so cvd and doct stay smaller.
SIZES = {
    "vc": (12, 20, 0.2, False),
    "fvs": (12, 20, 0.2, False),
    "oct": (12, 20, 0.2, False),
    "cvd": (12, 15, 0.3, False),
    "dfvs": (12, 20, 0.15, True),
    "doct": (12, 16, 0.18, True),
}
SEEDS = 8


def _graph(problem: str, seed: int):
    """Seeds 0..SEEDS-1 spread n from the smallest to the largest size."""
    lo, hi, p, directed = SIZES[problem]
    n = lo + (seed % SEEDS) * (hi - lo) // (SEEDS - 1)
    return gnp(n, p, seed, directed=directed)


def _feasible(problem, g, vertices) -> bool:
    return PROBLEMS[problem].in_class(delete_vertices(g, vertices))


@pytest.mark.parametrize("problem", list(SIZES))
@pytest.mark.parametrize("seed", range(SEEDS))
def test_budgeted_matches_reference(problem, seed):
    g = _graph(problem, seed)
    opt = 0
    while exact_budgeted_solve(problem, g, opt)[0] is None:
        opt += 1
    for budget in (opt, opt + 2):
        sol, _ = exact_budgeted_solve(problem, g, budget)
        ref, _ = reference_budgeted_solve(problem, g, budget)
        assert ref is not None and len(sol) == len(ref) == opt
        assert len(set(sol)) == opt and _feasible(problem, g, sol)
    if opt > 0:
        assert reference_budgeted_solve(problem, g, opt - 1)[0] is None


def _outcome(result):
    return (
        [(a.k, a.budget, a.success) for a in result.attempts],
        result.schedule,
        len(result.solution.vertices),
        result.max_budget_attempted,
    )


@pytest.mark.parametrize("problem", list(SIZES))
@pytest.mark.parametrize("seed", range(SEEDS))
def test_meta_attempts_match_reference(problem, seed):
    g = _graph(problem, 100 + seed)
    result = meta_solve(problem, g)
    assert _outcome(result) == _outcome(reference_meta_solve(problem, g))
    assert _feasible(problem, g, result.solution.vertices)

