"""Oracle self-checks: feasibility, optima, essential sets, caps."""
from __future__ import annotations

import math
import random
from itertools import combinations, product

import pytest

from conftest import complete_graph, cycle_graph, random_graph
from essentia.generate import gnp
from essentia.graphs import Digraph, Graph
from essentia.oracle import (
    OracleCapExceeded,
    OracleCaps,
    brute_essential,
    brute_flower,
    brute_opt,
    feasible,
    oracle_report,
    verify_detection,
)
from essentia.problems import PROBLEMS


def test_brute_opt_named():
    opt, sols = brute_opt("oct", cycle_graph(5))
    assert opt == 1 and len(sols) == 5
    opt, _ = brute_opt("fvs", complete_graph(4))
    assert opt == 2
    assert brute_opt("vc", Graph(4, []))[0] == 0
    assert brute_opt("dfvs", Digraph(3, [(0, 1), (1, 2), (2, 0)]))[0] == 1
    assert brute_opt("doct", Digraph(2, [(0, 1), (1, 0)]))[0] == 0
    assert brute_opt("cvd", cycle_graph(4))[0] == 1


def test_every_optimum_is_feasible():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        for problem in ("vc", "fvs", "oct", "cvd"):
            opt, sols = brute_opt(problem, g)
            for s in sols:
                assert len(s) == opt
                assert feasible(problem, g, s)
                # No smaller solution hides below.
                for v in s:
                    assert not feasible(problem, g, s - {v})


def test_brute_essential_named():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_essential("vc", star, 2) == {0}
    assert brute_essential("oct", cycle_graph(5), 2) == frozenset()
    fr3 = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)])
    assert brute_essential("fvs", fr3, 2) == {0}


def test_brute_essential_huge_c():
    # At c = 1e308, c * opt overflows to infinity; any c with
    # c * opt >= n gives the same budget, so the sets agree.
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, rng.randint(3, 7), 0.6)
        for problem in ("vc", "fvs", "oct"):
            assert brute_essential(problem, g, 1e308) == brute_essential(problem, g, g.n)


def test_essential_subset_of_every_optimum():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        for problem in ("vc", "fvs", "oct"):
            ess = brute_essential(problem, g, 2)
            _, sols = brute_opt(problem, g)
            for s in sols:
                assert ess <= s


def test_report_ell():
    rep = oracle_report("oct", cycle_graph(5))
    assert rep.opt == 1 and rep.essential == frozenset() and rep.ell == 1
    rep = oracle_report("fvs", Graph(3, []))
    assert rep.opt == 0 and rep.ell == 0


def test_flower_named():
    assert brute_flower(cycle_graph(5), 0, "odd-cycles") == 1
    fr3 = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)])
    assert brute_flower(fr3, 0, "cycles") == 3
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert brute_flower(tree, 1, "cycles") == 0
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert brute_flower(tri, 0, "directed-cycles") == 1


def test_flower_family_validation():
    with pytest.raises(ValueError):
        brute_flower(cycle_graph(3), 0, "directed-cycles")
    with pytest.raises(ValueError):
        brute_flower(Digraph(2, [(0, 1)]), 0, "cycles")
    with pytest.raises(ValueError):
        brute_flower(cycle_graph(3), 0, "squares")


def test_caps_raise():
    big = cycle_graph(14)
    with pytest.raises(OracleCapExceeded):
        brute_opt("fvs", big, OracleCaps(opt_component=10))
    with pytest.raises(OracleCapExceeded):
        brute_flower(big, 0, "cycles")
    # Components are capped individually, so many small pieces are fine.
    forest = Graph(30, [(3 * i, 3 * i + 1) for i in range(10)])
    assert brute_opt("vc", forest)[0] == 10


def test_component_decomposition_matches_whole():
    rng = random.Random(17)
    for _ in range(20):
        # Two disjoint blobs glue into one instance.
        g1 = random_graph(rng, 4, 0.6)
        g2 = random_graph(rng, 3, 0.6)
        edges = list(g1.edges()) + [(u + 4, v + 4) for u, v in g2.edges()]
        g = Graph(7, edges)
        for problem in ("vc", "fvs", "oct"):
            assert (
                brute_opt(problem, g)[0]
                == brute_opt(problem, g1)[0] + brute_opt(problem, g2)[0]
            )


def test_verify_detection_negative_controls():
    g = cycle_graph(6)  # two disjoint optimal vertex covers exist
    ok, msg = verify_detection("vc", g, 3, frozenset(range(6)))
    assert not ok and "G1" in msg
    fr3 = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)])
    ok, msg = verify_detection("fvs", fr3, 1, frozenset())
    assert not ok and "G2" in msg


def test_verify_detection_positive():
    ok, msg = verify_detection("oct", cycle_graph(5), 1, frozenset())
    assert ok, msg


@pytest.mark.parametrize("c", [0.999, 0.5, 0, -2, math.nan])
def test_c_below_one_is_refused(c):
    # Below c = 1 no solution is c-approximate when opt > 0, and NaN
    # compares false with every size.
    g = cycle_graph(5)
    calls = [
        lambda: brute_essential("oct", g, c),
        lambda: oracle_report("oct", g, c),
        lambda: verify_detection("oct", g, 1, frozenset(), c),  # opt == k
        lambda: verify_detection("oct", g, 3, frozenset(), c),  # G2 not checked
    ]
    for call in calls:
        with pytest.raises(ValueError, match="c must be at least 1"):
            call()


def test_infinite_c():
    # inf * 0 is NaN; opt = 0 gives bound 0, and any opt > 0 bound n.
    empty = Graph(3, [])
    assert brute_essential("vc", empty, math.inf) == frozenset()
    assert oracle_report("vc", empty, math.inf).essential == frozenset()
    assert verify_detection("vc", empty, 0, frozenset(), math.inf) == (True, "ok")
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_essential("vc", star, math.inf) == brute_essential("vc", star, 4) == frozenset()


DEFINITION_CS = (1, 1.5, 2, 3, math.inf)


def _by_definition(problem, g):
    """opt, the set of optimal solutions and every feasible deletion set,
    from whole-graph subset enumeration through feasible() alone."""
    solutions = [frozenset(s) for k in range(g.n + 1)
                 for s in combinations(range(g.n), k) if feasible(problem, g, s)]
    opt = len(solutions[0])
    return opt, {s for s in solutions if len(s) == opt}, solutions


def _essential_by_definition(g, opt, solutions, c):
    # Optima are c-approximate at every c >= 1, inf * 0 included.
    within = [s for s in solutions if len(s) == opt or len(s) <= c * opt]
    return frozenset(range(g.n)).intersection(*within)


def _verdict_by_definition(opt, optima, essential, k, chosen):
    if opt <= k and not any(chosen <= s for s in optima):
        return "G1"
    if opt == k and not essential <= chosen:
        return "G2"
    return "ok"


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_oracle_matches_its_definition(problem):
    # No components and no single-size avoidance test: every answer is
    # read off the list of all feasible deletion sets of the whole graph.
    directed = PROBLEMS[problem].directed
    rng = random.Random(7)
    for n, p, _ in product(range(9), (0.2, 0.35, 0.5, 0.7), range(3)):
        g = gnp(n, p, rng.randrange(1000), directed=directed)
        opt, optima, solutions = _by_definition(problem, g)
        found, sols = brute_opt(problem, g)
        assert (found, set(sols)) == (opt, optima) and len(sols) == len(optima)
        for c in DEFINITION_CS:
            expected = _essential_by_definition(g, opt, solutions, c)
            assert brute_essential(problem, g, c) == expected, (n, p, c)
        report = oracle_report(problem, g)
        essential = _essential_by_definition(g, opt, solutions, PROBLEMS[problem].c)
        assert (report.opt, set(report.optimal_solutions), report.essential) == (
            opt, optima, essential)
        some = sorted(rng.choice(sorted(optima, key=sorted)))
        chosen_sets = [frozenset(), frozenset(rng.sample(range(n), rng.randint(0, n))),
                       frozenset(rng.sample(some, rng.randint(0, len(some))))]
        for k in range(max(0, opt - 1), opt + 2):
            for chosen in chosen_sets:
                ok, msg = verify_detection(problem, g, k, chosen)
                verdict = _verdict_by_definition(opt, optima, essential, k, chosen)
                assert (ok, msg[:2]) == (verdict == "ok", verdict[:2]), (n, p, k, chosen)
