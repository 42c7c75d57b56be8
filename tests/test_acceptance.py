"""Acceptance gate: six criteria, one test and one printed verdict each.

1. Detection contracts (G1 and G2 at k = opt) for all six problems over
   200 random instances per density plus planted flowers - zero failures.
2. Detection-driven solving matches the brute-force optimum on the full
   corpus for all six problems.
3. Kernels: matching, cover, separator, and path packings against
   exhaustive search.
4. Lazy-constraint LP == explicit all-holes LP, exact rational equality,
   and final assignments survive a full separation sweep.
5. Planted essential suites (ell <= 2, opt >= 6): attempted budgets stay
   within ell everywhere, and branching work never exceeds direct search
   on at least 90% of instances.
6. Flower numbers equal the exhaustive flower oracle everywhere, and all
   emitted certificates verify structurally.
"""
from __future__ import annotations

import random
from functools import lru_cache

from conftest import random_bipartite, random_graph
from essentia.detect import (
    detect,
    flower_number_dfvs,
    flower_number_fvs,
    flower_number_oct,
    verify_flower_certificate,
)
from essentia.generate import gnp, planted_ess, planted_flower
from essentia.graphs import Digraph, delete_vertices
from essentia.lp import separation_oracle_holes, solve_v_avoiding_lp
from essentia.matching import max_matching, min_vertex_cover_bipartite
from essentia.flows import SeparatorUndefined, min_vertex_separator
from essentia.oracle import (
    OracleCaps,
    brute_flower,
    brute_opt,
    oracle_report,
    verify_detection,
)
from essentia.problems import PROBLEMS
from essentia.solve import exact_budgeted_solve, meta_solve

from test_flows import brute_min_separator
from test_lp import explicit_lp_cost
from test_matching import brute_max_matching, brute_min_vertex_cover
from test_tpaths import brute_max_packing, check_packing

DENSITIES = (0.2, 0.4, 0.6)
# Planted flower families reach 13 vertices in one component (cvd, q=4).
ACCEPT_CAPS = OracleCaps(opt_component=14, essential_component=14)
TRIALS_PER_DENSITY = 200
FLOWER_QS = (1, 2, 3, 4)


def _instance_size(problem: str) -> int:
    return 7 if problem == "cvd" else 8


@lru_cache(maxsize=None)
def corpus(problem: str) -> tuple:
    directed = PROBLEMS[problem].directed
    n = _instance_size(problem)
    instances = []
    for density in DENSITIES:
        for trial in range(TRIALS_PER_DENSITY):
            seed = hash((problem, density, trial)) & 0x7FFFFFFF
            instances.append(gnp(n, density, seed, directed))
    for q in FLOWER_QS:
        instances.append(planted_flower(problem, q))
    return tuple(instances)


@lru_cache(maxsize=None)
def corpus_opt(problem: str) -> tuple[int, ...]:
    return tuple(brute_opt(problem, g, ACCEPT_CAPS)[0] for g in corpus(problem))


def _verdict(idx: int, slug: str, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {idx} {slug}: {'PASS' if ok else 'FAIL'} ({details})")


def test_criterion_1_detection_contracts():
    failures = []
    checked = 0
    for problem in PROBLEMS:
        instances = corpus(problem)
        opts = corpus_opt(problem)
        for g, opt in zip(instances, opts):
            res = detect(problem, g, opt)
            ok, msg = verify_detection(problem, g, opt, res.vertices, caps=ACCEPT_CAPS)
            checked += 1
            if not ok:
                failures.append((problem, g, opt, msg))
    ok = not failures
    _verdict(1, "detection-contracts", ok,
             f"{checked} instances at k=opt, {len(failures)} failures")
    assert ok, failures[:3]


def test_criterion_2_meta_solver_optimality():
    failures = []
    checked = 0
    for problem in PROBLEMS:
        instances = corpus(problem)
        opts = corpus_opt(problem)
        for g, opt in zip(instances, opts):
            res = meta_solve(problem, g)
            checked += 1
            if len(res.solution.vertices) != opt:
                failures.append((problem, g, opt, len(res.solution.vertices)))
            if not PROBLEMS[problem].in_class(delete_vertices(g, res.solution.vertices)):
                failures.append((problem, g, opt, "infeasible output"))
    ok = not failures
    _verdict(2, "meta-solver-optimality", ok,
             f"{checked} instances, {len(failures)} failures")
    assert ok, failures[:3]


def test_criterion_3_kernels():
    failures = []
    rng = random.Random(31337)
    match_checked = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.4, 0.6, 0.8]))
        if len(max_matching(g)) != brute_max_matching(g):
            failures.append(("matching", g))
        match_checked += 1
    koenig_checked = 0
    for _ in range(100):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        g, coloring = random_bipartite(rng, a, b, rng.choice([0.3, 0.5, 0.8]))
        cover = min_vertex_cover_bipartite(g, coloring)
        if len(cover) != len(max_matching(g)):
            failures.append(("koenig-matching", g))
        if len(cover) != brute_min_vertex_cover(g):
            failures.append(("koenig-brute", g))
        if not all(u in cover or v in cover for u, v in g.edges()):
            failures.append(("koenig-covers", g))
        koenig_checked += 1
    menger_checked = 0
    for _ in range(120):
        n = rng.randint(2, 8)
        d = Digraph(n, [
            (u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < rng.choice([0.2, 0.35, 0.5])
        ])
        s, t = rng.sample(range(n), 2)
        if d.has_arc(s, t):
            continue
        try:
            res = min_vertex_separator(d, s, t)
        except SeparatorUndefined:
            failures.append(("menger-undefined", d))
            continue
        # Menger equality and disconnection are verified at construction.
        if res.size != brute_min_separator(d, s, t):
            failures.append(("menger-brute", d))
        menger_checked += 1
    packing_checked = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.4, 0.6]))
        T = {v for v in range(g.n) if rng.random() < 0.45}
        from essentia.tpaths import (
            max_T_path_packing,
            max_odd_T_path_packing,
            min_odd_T_path_cover_bipartite,
        )
        pk = max_T_path_packing(g, T)
        check_packing(g, T, pk)
        if len(pk) != brute_max_packing(g, T):
            failures.append(("gallai", g))
        opk = max_odd_T_path_packing(g, T)
        check_packing(g, T, opk, odd=True)
        if len(opk) != brute_max_packing(g, T, odd=True):
            failures.append(("odd-packing", g))
        from essentia.recognize import is_bipartite
        if is_bipartite(g)[0]:
            cover = min_odd_T_path_cover_bipartite(g, T)
            if len(cover) != len(opk):
                failures.append(("odd-duality", g))
        packing_checked += 1
    ok = not failures
    _verdict(3, "kernels", ok,
             f"matching {match_checked}, cover {koenig_checked}, "
             f"separator {menger_checked}, packings {packing_checked}, "
             f"{len(failures)} failures")
    assert ok, failures[:3]


def test_criterion_4_lp_exactness():
    failures = []
    rng = random.Random(424242)
    graphs = [
        random_graph(rng, rng.randint(4, 7), rng.choice([0.35, 0.5, 0.65]))
        for _ in range(120)
    ]
    compared = 0
    for g in graphs:
        for v in range(g.n):
            state = solve_v_avoiding_lp(g, v)
            if state.cost != explicit_lp_cost(g, v):
                failures.append(("cost", g, v))
            if separation_oracle_holes(g, list(state.assignment)) is not None:
                failures.append(("sweep", g, v))
            compared += 1
    ok = not failures
    _verdict(4, "lp-exactness", ok,
             f"{len(graphs)} graphs, {compared} pinned LPs, "
             f"{len(failures)} failures")
    assert ok, failures[:3]


def test_criterion_5_search_space_reduction():
    caps = OracleCaps(opt_component=20, essential_component=20)
    suites = {
        "vc": dict(centers=6, background=2),
        "fvs": dict(centers=4, background=2),
        "oct": dict(centers=4, background=2),
        "dfvs": dict(centers=4, background=2),
    }
    budget_violations = []
    node_wins = 0
    total = 0
    for problem, params in suites.items():
        for seed in range(8):
            g = planted_ess(problem, seed=seed, **params)
            report = oracle_report(problem, g, caps=caps)
            assert report.ell <= 2 and report.opt >= 6, (
                problem, seed, report.opt, report.ell
            )
            meta = meta_solve(problem, g)
            assert len(meta.solution.vertices) == report.opt
            if meta.max_budget_attempted > report.ell:
                budget_violations.append((problem, seed,
                                          meta.max_budget_attempted, report.ell))
            _, direct_nodes = exact_budgeted_solve(problem, g, report.opt)
            if meta.solver_nodes <= direct_nodes:
                node_wins += 1
            total += 1
    ratio = node_wins / total
    ok = not budget_violations and ratio >= 0.9
    _verdict(5, "search-space-reduction", ok,
             f"{total} instances, budget<=ell on {total - len(budget_violations)}, "
             f"node wins {node_wins}/{total}")
    assert ok, (budget_violations, ratio)


def test_criterion_6_flower_correctness():
    failures = []
    checked = 0
    for problem, fn, family in (
        ("fvs", flower_number_fvs, "cycles"),
        ("oct", flower_number_oct, "odd-cycles"),
        ("dfvs", flower_number_dfvs, "directed-cycles"),
    ):
        for g in corpus(problem):
            for v in range(g.n):
                count, cert = fn(g, v)
                if count != brute_flower(g, v, family):
                    failures.append((problem, g, v))
                try:
                    verify_flower_certificate(problem, g, cert)
                except AssertionError as exc:
                    failures.append((problem, g, v, str(exc)))
                if len(cert.petals) != count:
                    failures.append((problem, g, v, "petal count"))
                checked += 1
    ok = not failures
    _verdict(6, "flower-correctness", ok,
             f"{checked} (vertex, problem) pairs, {len(failures)} failures")
    assert ok, failures[:3]
