"""Flower numbers vs the brute-force oracle; detector contracts G1/G2."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import complete_graph, cycle_graph, disjoint_union, random_digraph, random_graph
from essentia.detect import (
    _SCORES,
    _doct_scores,
    _shorten,
    detect,
    detector_factory,
    flower_number_dfvs,
    flower_number_fvs,
    flower_number_oct,
    vc_lp_halfintegral,
)
from essentia.generate import gnp, planted_ess, planted_flower
from essentia.graphs import Digraph, Graph, delete_vertices
from essentia.matching import min_vertex_cover_bipartite
from essentia.oracle import brute_flower, verify_detection
from essentia.tpaths import max_odd_T_path_packing, max_T_path_packing
from helpers import verify_flower_certificate
from reference_detect import component_scores
from reference_solve import delete_renumbered


def friendship(q: int) -> Graph:
    edges = []
    for i in range(q):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph(1 + 2 * q, edges)


def directed_friendship(q: int) -> Digraph:
    arcs = []
    for i in range(q):
        a, b = 1 + 2 * i, 2 + 2 * i
        arcs += [(0, a), (a, b), (b, 0)]
    return Digraph(1 + 2 * q, arcs)


def test_fvs_flower_named():
    for q in (1, 2, 3):
        count, cert = flower_number_fvs(friendship(q), 0)
        assert count == q
        verify_flower_certificate("fvs", friendship(q), cert)
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert flower_number_fvs(tree, 1)[0] == 0
    assert flower_number_fvs(cycle_graph(5), 2)[0] == 1


def test_oct_flower_named():
    assert flower_number_oct(cycle_graph(5), 0)[0] == 1
    assert flower_number_oct(complete_graph(4), 0)[0] == 1
    count, cert = flower_number_oct(friendship(2), 0)
    assert count == 2
    verify_flower_certificate("oct", friendship(2), cert)


def test_oct_flower_c5_plus_chord():
    # One odd cycle through 0 exists but only with a chord; the packing
    # still counts it, and the petal keeps the full 5-cycle.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    count, cert = flower_number_oct(g, 0)
    assert count == 1
    verify_flower_certificate("oct", g, cert)


def test_dfvs_flower_named():
    for q in (1, 2, 3):
        d = directed_friendship(q)
        count, cert = flower_number_dfvs(d, 0)
        assert count == q
        verify_flower_certificate("dfvs", d, cert)
    dag = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert flower_number_dfvs(dag, 0)[0] == 0
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert flower_number_dfvs(tri, 1)[0] == 1


@pytest.mark.parametrize("seed", range(120))
def test_flowers_vs_brute(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    d = random_digraph(rng, n, rng.choice([0.2, 0.4]))
    for v in range(n):
        count, cert = flower_number_fvs(g, v)
        assert count == brute_flower(g, v, "cycles")
        verify_flower_certificate("fvs", g, cert)
        count, cert = flower_number_oct(g, v)
        assert count == brute_flower(g, v, "odd-cycles")
        verify_flower_certificate("oct", g, cert)
        count, cert = flower_number_dfvs(d, v)
        assert count == brute_flower(d, v, "directed-cycles")
        verify_flower_certificate("dfvs", d, cert)


@pytest.mark.parametrize("q", [20, 60])
def test_planted_flowers_beyond_brute_scale(q):
    # Exact kernel answers where no oracle reaches: both T-path packers,
    # both flow cases (s == t and label-extended pairs) and the vc LP.
    for problem, flower in (("fvs", flower_number_fvs), ("oct", flower_number_oct),
                            ("dfvs", flower_number_dfvs)):
        g = planted_flower(problem, q)
        count, cert = flower(g, 0)
        assert count == q and len(cert.petals) == q, problem
        verify_flower_certificate(problem, g, cert)
    assert _doct_scores(planted_flower("doct", q), [0])[0][0] == q
    assert vc_lp_halfintegral(planted_flower("vc", q))[0] == 1


def test_detect_fvs_friendship():
    g = friendship(3)
    res = detect("fvs", g, 2)
    assert res.vertices == {0}
    ok, msg = verify_detection("fvs", g, 2, res.vertices)
    assert ok, msg


def test_detect_oct_c5_budget1():
    res = detect("oct", cycle_graph(5), 1)
    assert res.vertices == frozenset()


def test_detect_fvs_forest():
    tree = Graph(4, [(0, 1), (1, 2), (1, 3)])
    for k in range(5):
        assert detect("fvs", tree, k).vertices == frozenset()


def test_detect_degenerate_budget():
    g = friendship(3)
    assert detect("fvs", g, g.n).vertices == frozenset()
    assert detect("vc", g, g.n + 5).vertices == frozenset()


def test_detect_vc_named():
    # Single edge: the all-halves solution leaves nothing fixed at one.
    assert detect("vc", Graph(2, [(0, 1)]), 1).vertices == frozenset()
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = detect("vc", star, 1)
    assert res.vertices == {0}
    assert detect("vc", Graph(3, []), 0).vertices == frozenset()


@pytest.mark.parametrize("problem", ["vc", "fvs", "oct", "dfvs", "doct", "cvd"])
def test_factory_agrees_with_detect(problem):
    # The closure owns the k >= n rule, so it must match detect at every
    # budget, including the star K1,3 whose vc LP fixes its center.
    rng = random.Random(f"agree:{problem}")
    directed = problem in ("dfvs", "doct")
    graphs = [Digraph(0) if directed else Graph(0)]
    if problem == "vc":
        graphs.append(Graph(4, [(0, 1), (0, 2), (0, 3)]))
    for _ in range(12):
        n = rng.randint(1, 7)
        if directed:
            graphs.append(random_digraph(rng, n, rng.choice([0.2, 0.4])))
        else:
            graphs.append(random_graph(rng, n, rng.choice([0.3, 0.5])))
    for g in graphs:
        factory = detector_factory(problem, g)
        for k in range(g.n + 2):
            assert factory(k) == detect(problem, g, k), (g, k)


def test_vc_lp_assignment_properties():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        x = vc_lp_halfintegral(g)
        for u, v in g.edges():
            assert x[u] + x[v] >= 1


def separate_double_cover_lp(g: Graph) -> list[Fraction]:
    """Reference for ``vc_lp_halfintegral``: the double cover with v on
    side 0 and its copy n + v on side 1, each edge uw joining u to n + w
    and w to n + u."""
    edges = []
    for u, w in g.edges():
        edges += [(u, g.n + w), (w, g.n + u)]
    cover = min_vertex_cover_bipartite(Graph(2 * g.n, edges), [0] * g.n + [1] * g.n)
    return [Fraction((v in cover) + (g.n + v in cover), 2) for v in range(g.n)]


@pytest.mark.parametrize("n", [20, 50, 100, 200])
def test_vc_lp_matches_the_separate_double_cover(n):
    # König's cover from the exposed side-0 vertices is the same for
    # every maximum matching, so renumbering the cover changes no x.
    graphs = [gnp(n, p, seed) for p in (1.5 / n, 4 / n, 0.1) for seed in range(3)]
    graphs += [planted_ess("vc", centers=c, background=3, seed=n + c) for c in (2, 4, 6)]
    for g in graphs:
        x = vc_lp_halfintegral(g)
        assert x == separate_double_cover_lp(g), g
        assert all(x[u] + x[v] >= 1 for u, v in g.edges())


@pytest.mark.parametrize("n", [24, 28, 32, 36, 40])
def test_flower_certificates_beyond_brute_scale(n):
    # The packers check sizes, parity and disjointness, not that their
    # paths run along edges of G; every petal here must.
    for seed in range(3):
        g = gnp(n, 0.15, seed)
        for problem, flower_number in (("fvs", flower_number_fvs), ("oct", flower_number_oct)):
            for v in range(n):
                verify_flower_certificate(problem, g, flower_number(g, v)[1])


def test_detect_doct_named():
    tri = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert detect("doct", tri, 1).vertices == frozenset()
    two = Digraph(2, [(0, 1), (1, 0)])
    for k in (0, 1):
        assert detect("doct", two, k).vertices == frozenset()
    # 2k+1 odd cycles pairwise sharing v force v into the answer.
    k = 1
    d = directed_friendship(2 * k + 1)
    res = detect("doct", d, k)
    assert 0 in res.vertices
    ok, msg = verify_detection("doct", d, k, res.vertices)
    assert ok, msg


def test_detect_directedness_mismatch():
    with pytest.raises(TypeError):
        detect("dfvs", cycle_graph(4), 1)
    with pytest.raises(TypeError):
        detect("fvs", Digraph(3, [(0, 1)]), 1)


@pytest.mark.parametrize("problem", ["vc", "fvs", "oct"])
@pytest.mark.parametrize("seed", range(25))
def test_contracts_small_undirected(problem, seed):
    rng = random.Random(f"{problem}-{seed}")
    g = random_graph(rng, rng.randint(1, 7), rng.choice([0.2, 0.4, 0.6]))
    from essentia.oracle import brute_opt

    opt, _ = brute_opt(problem, g)
    for k in {max(0, opt - 1), opt, opt + 1}:
        res = detect(problem, g, k)
        ok, msg = verify_detection(problem, g, k, res.vertices)
        assert ok, f"{problem} n={g.n} k={k}: {msg}"


@pytest.mark.parametrize("problem", ["dfvs", "doct"])
@pytest.mark.parametrize("seed", range(25))
def test_contracts_small_directed(problem, seed):
    rng = random.Random(f"{problem}-{seed}")
    d = random_digraph(rng, rng.randint(1, 6), rng.choice([0.2, 0.35]))
    from essentia.oracle import brute_opt

    opt, _ = brute_opt(problem, d)
    for k in {max(0, opt - 1), opt, opt + 1}:
        res = detect(problem, d, k)
        ok, msg = verify_detection(problem, d, k, res.vertices)
        assert ok, f"{problem} n={d.n} k={k}: {msg}"


@pytest.mark.parametrize("seed", range(30))
def test_flower_monotone_under_deletion(seed):
    # Removing any vertex other than the center never raises the count.
    rng = random.Random(60_000 + seed)
    g = random_graph(rng, rng.randint(2, 7), 0.5)
    v = rng.randrange(g.n)
    base, _ = flower_number_fvs(g, v)
    base_odd, _ = flower_number_oct(g, v)
    for w in range(g.n):
        if w == v:
            continue
        h = delete_vertices(g, [w])
        assert flower_number_fvs(h, v)[0] <= base
        assert flower_number_oct(h, v)[0] <= base_odd


@pytest.mark.parametrize("seed", range(20))
def test_flower_matches_renumbered_packing(seed):
    # The flower numbers pack T-paths in g with v isolated; a packing on
    # the renumbered G - v, mapped back, gives the same count and petals.
    rng = random.Random(80_000 + seed)
    g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.35, 0.5]))
    for v in range(g.n):
        h, remap = delete_renumbered(g, [v])
        inv = {new: old for old, new in remap.items()}
        terminals = {remap[w] for w in g.neighbors(v)}
        for fn, packer, odd in (
            (flower_number_fvs, max_T_path_packing, False),
            (flower_number_oct, max_odd_T_path_packing, True),
        ):
            packing = packer(h, terminals)
            petals = tuple(
                _shorten([v] + [inv[x] for x in p], g.has_edge, odd)
                for p in packing
            )
            count, cert = fn(g, v)
            assert count == len(packing), (seed, v, odd)
            assert cert.center == v and cert.petals == petals, (seed, v, odd)


@pytest.mark.parametrize("seed", range(40))
def test_flower_minmax_when_rest_in_class(seed):
    # Whenever G - v is already in the class, the flower number equals the
    # smallest v-avoiding deletion set, by exhaustive search.
    from itertools import combinations

    from essentia.problems import PROBLEMS

    rng = random.Random(70_000 + seed)
    v = 0
    checked = 0
    for problem, fn in (
        ("fvs", flower_number_fvs),
        ("oct", flower_number_oct),
        ("dfvs", flower_number_dfvs),
    ):
        directed = PROBLEMS[problem].directed
        g = (
            random_digraph(rng, rng.randint(2, 6), 0.3)
            if directed
            else random_graph(rng, rng.randint(2, 7), 0.4)
        )
        if not PROBLEMS[problem].in_class(delete_vertices(g, [v])):
            continue
        count, _ = fn(g, v)
        best = None
        others = [u for u in range(g.n) if u != v]
        for k in range(len(others) + 1):
            for sub in combinations(others, k):
                if PROBLEMS[problem].in_class(delete_vertices(g, sub)):
                    best = k
                    break
            if best is not None:
                break
        assert count == best, (problem, g, count, best)
        checked += 1


def _whole_graph_scores(problem, g):
    """The per-vertex kernels run on the whole graph, without the split
    into blocks or components."""
    if problem == "doct":
        return _doct_scores(g, range(g.n))
    flower_number = {"fvs": flower_number_fvs, "oct": flower_number_oct,
                     "dfvs": flower_number_dfvs}[problem]
    return [flower_number(g, v) for v in range(g.n)]


def _split_instances():
    for problem in ("fvs", "oct", "dfvs"):
        for seed in range(3):
            yield problem, planted_ess(problem, centers=2 + seed, background=2, seed=seed)
    for seed in range(4):
        parts = [gnp(4 + (seed + i) % 5, 0.3, 10 * seed + i, directed=True)
                 for i in range(2 + seed % 2)]
        yield "doct", disjoint_union(*parts)
    for problem in ("fvs", "oct", "dfvs", "doct"):
        directed = problem in ("dfvs", "doct")
        for seed in range(4):
            # Deleting vertices leaves them isolated between the others.
            g = gnp(12, 0.3, seed, directed=directed)
            yield problem, delete_vertices(g, {seed, 5, 11 - seed})


@pytest.mark.parametrize("problem,g", list(_split_instances()))
def test_component_scores_match_the_whole_graph(problem, g):
    scored = _whole_graph_scores(problem, g)
    detector = detector_factory(problem, g)
    for k in range(g.n + 1):
        res = detector(k)
        bar = 2 * k if problem == "doct" else k
        expected = [] if k >= g.n else [v for v in range(g.n) if scored[v][0] > bar]
        assert res.vertices == frozenset(expected), k
        assert res.certificates == {v: scored[v][1] for v in expected}, k
        if problem != "doct":
            for cert in res.certificates.values():
                verify_flower_certificate(problem, g, cert)


@pytest.mark.parametrize("problem", ["fvs", "oct", "dfvs"])
@pytest.mark.parametrize("p", [0.05, 0.1, 0.2, 0.35])
def test_block_scores_match_the_component_reference(problem, p):
    # Each vertex is scored on the blocks that contain it; the reference
    # scores it on its whole component.  The scores must agree; the
    # petals may differ, and from n = 24 on each must verify.
    directed = problem == "dfvs"
    for n in range(1, 61):
        g = gnp(n, p, n, directed=directed)
        scored = _SCORES[problem][0](g)
        reference = component_scores(problem, g)
        assert [s for s, _ in scored] == [s for s, _ in reference], n
        for v, (score, cert) in enumerate(scored):
            assert cert.center == v and len(cert.petals) == score
            if n >= 24:
                verify_flower_certificate(problem, g, cert)


@pytest.mark.parametrize("problem", ["fvs", "oct", "dfvs"])
def test_block_scores_match_the_component_reference_on_planted_flowers(problem):
    for centers in (2, 4, 6, 12):
        for seed in range(3):
            g = planted_ess(problem, centers=centers, background=3, seed=seed)
            scored = _SCORES[problem][0](g)
            assert [s for s, _ in scored] == [s for s, _ in component_scores(problem, g)]
            for _, cert in scored:
                verify_flower_certificate(problem, g, cert)
