"""Detectors for vertices essential to near-optimal solutions.

Each detector answers the same two-sided contract for a problem with
coefficient c, given (G, k):

  G1  if opt <= k, the returned set lies inside some optimal solution;
  G2  if opt == k, the returned set contains every vertex that belongs
      to all solutions of size at most c * opt.

Detection reduces to one per-vertex score checked against a bar that
depends only on k; v is selected when score(v) > bar(k) and k < n:

  FVS / DFVS / OCT   score: flower number at v (vertex-disjoint-but-for-v
                     packing of forbidden cycles); bar: k.
  DOCT               score: size of a minimum separator between the two
                     parity copies of v in the label-extended digraph;
                     bar: 2k.
  VC                 score: 2 * x_v in an optimal half-integral covering
                     relaxation; bar: 1.
  CVD                score: cost of the avoiding LP pinning x_v = 0;
                     bar: k.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .flows import min_vertex_separator
from .graphs import Digraph, Graph, isolate
from .lp import LPState, solve_v_avoiding_lp
from .matching import min_vertex_cover_bipartite
from .problems import PROBLEMS
from .tpaths import PathPacking, max_T_path_packing, max_odd_T_path_packing


@dataclass(frozen=True)
class FlowerCertificate:
    """Forbidden cycles pairwise intersecting exactly in the center."""

    center: int
    petals: tuple[tuple[int, ...], ...]  # each starts at the center


@dataclass(frozen=True)
class DoctCertificate:
    """Separator evidence between the parity copies of a vertex; labels
    are (vertex, parity) pairs of the label-extended digraph."""

    vertex: int
    separator: frozenset[tuple[int, int]]
    paths: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class DetectionResult:
    problem: str
    k: int
    vertices: frozenset[int]
    certificates: dict[int, object] = field(default_factory=dict)
    extra: dict | None = None

    @property
    def c(self) -> int:
        return PROBLEMS[self.problem].c


def _shorten(cycle: list[int], adjacent: Callable[[int, int], bool], odd: bool = False) -> tuple[int, ...]:
    """Shorten a cycle through cycle[0] along chords u -> w with
    adjacent(u, w), keeping the start vertex and, when odd is set, odd
    length.  Without the parity constraint the result is chordless; with
    it a chord may survive when the start-side part of every split is
    even."""
    improved = True
    while improved:
        improved = False
        size = len(cycle)
        for i in range(size):
            for j in range(i + 2, size):
                if i == 0 and j == size - 1:
                    continue
                if adjacent(cycle[i], cycle[j]):
                    cand = cycle[:i + 1] + cycle[j:]
                    if not odd or len(cand) % 2 == 1:
                        cycle = cand
                        improved = True
                        break
            if improved:
                break
    return tuple(cycle)


def _flower_number(
    g: Graph, v: int, packer: Callable[..., PathPacking], odd: bool
) -> tuple[int, FlowerCertificate]:
    """Petals through v from a T-path packing in G - v with the neighbors
    of v as terminals, each closed through v and shortened along chords."""
    packing = packer(isolate(g, v), g.neighbors(v))
    petals = tuple(_shorten([v, *p], g.has_edge, odd) for p in packing.paths)
    return len(packing), FlowerCertificate(v, petals)


def flower_number_fvs(g: Graph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of cycles pairwise meeting only at v: T-path packing
    in G - v with the neighbors of v as terminals."""
    return _flower_number(g, v, max_T_path_packing, odd=False)


def flower_number_oct(g: Graph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of odd cycles pairwise meeting only at v: odd T-path
    packing in G - v closed through v."""
    return _flower_number(g, v, max_odd_T_path_packing, odd=True)


def flower_number_dfvs(d: Digraph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of directed cycles pairwise meeting only at v:
    split v into an out-part (fresh vertex) and an in-part and take the
    Menger system between them."""
    out_part = d.n  # v keeps its id and plays the in-part
    arcs = []
    for u, w in d.arcs():
        if u == v:
            arcs.append((out_part, w))
        elif w == v:
            arcs.append((u, v))
        else:
            arcs.append((u, w))
    split = Digraph(d.n + 1, arcs)
    res = min_vertex_separator(split, out_part, v)
    petals = tuple(
        _shorten([v] + list(p[1:-1]), d.has_arc) for p in res.paths
    )
    return len(res.paths), FlowerCertificate(v, petals)


def vc_lp_halfintegral(g: Graph) -> list[Fraction]:
    """An optimal half-integral solution of the edge-covering relaxation,
    via a minimum vertex cover of the bipartite double cover."""
    edges = []
    for u, w in g.edges():
        edges.append((u, g.n + w))
        edges.append((w, g.n + u))
    double = Graph(2 * g.n, edges)
    coloring = [0] * g.n + [1] * g.n
    cover = min_vertex_cover_bipartite(double, coloring)
    half = Fraction(1, 2)
    return [
        half * ((v in cover) + (g.n + v in cover)) for v in range(g.n)
    ]


def label_extended(d: Digraph) -> Digraph:
    """Parity-split double cover: v maps to 2v (even copy) and 2v+1 (odd
    copy); an arc (u, w) induces (2u, 2w+1) and (2u+1, 2w)."""
    arcs = []
    for u, w in d.arcs():
        arcs.append((2 * u, 2 * w + 1))
        arcs.append((2 * u + 1, 2 * w))
    return Digraph(2 * d.n, arcs)


def _doct_scores(d: Digraph) -> list[tuple[int, DoctCertificate]]:
    """Minimum separator between the copies of each v in the
    label-extended digraph; its size bounds packings of odd closed walks
    through v."""
    ext = label_extended(d)
    out = []
    for v in range(d.n):
        res = min_vertex_separator(ext, 2 * v, 2 * v + 1)
        # divmod(x, 2) maps a copy back to its (vertex, parity) label.
        cert = DoctCertificate(
            v,
            frozenset(divmod(x, 2) for x in res.separator),
            tuple(tuple(divmod(x, 2) for x in p) for p in res.paths),
        )
        out.append((res.size, cert))
    return out


def _vc_scores(g: Graph) -> list[tuple[Fraction, Fraction]]:
    return [(2 * x, x) for x in vc_lp_halfintegral(g)]


def _cvd_scores(g: Graph) -> list[tuple[Fraction, LPState]]:
    states = []
    pool: list[tuple[int, ...]] = []
    for v in range(g.n):
        state = solve_v_avoiding_lp(g, v, pool)
        # Carry discovered holes forward; they are valid cuts for every
        # pinned vertex and save oracle rounds.
        pool = list(state.pool)
        states.append((state.cost, state))
    return states


# problem -> (per-vertex (score, certificate) list, bar(k)).
_SCORES: dict[str, tuple[Callable, Callable[[int], int]]] = {
    "fvs": (lambda g: [flower_number_fvs(g, v) for v in range(g.n)], lambda k: k),
    "oct": (lambda g: [flower_number_oct(g, v) for v in range(g.n)], lambda k: k),
    "dfvs": (lambda d: [flower_number_dfvs(d, v) for v in range(d.n)], lambda k: k),
    "doct": (_doct_scores, lambda k: 2 * k),
    "vc": (_vc_scores, lambda k: 1),
    "cvd": (_cvd_scores, lambda k: k),
}


def detector_factory(problem: str, g: Graph | Digraph) -> Callable[[int], DetectionResult]:
    """Score every vertex once; the returned closure evaluates the
    detector for any budget k in O(n)."""
    PROBLEMS[problem].check_graph(g)
    score_fn, bar = _SCORES[problem]
    scored = score_fn(g)
    extra = {"assignment": tuple(x for _, x in scored)} if problem == "vc" else None

    def detector(k: int) -> DetectionResult:
        if k >= g.n:
            # opt < n <= k on non-empty graphs: G2 asks for nothing, {} meets G1.
            return DetectionResult(problem, k, frozenset())
        threshold = bar(k)
        chosen = [v for v in range(g.n) if scored[v][0] > threshold]
        certs = {v: scored[v][1] for v in chosen}
        return DetectionResult(problem, k, frozenset(chosen), certs, extra)

    return detector


def detect(problem: str, g: Graph | Digraph, k: int) -> DetectionResult:
    """Run the problem's detector on (g, k)."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    return detector_factory(problem, g)(k)


def verify_flower_certificate(
    problem: str, g: Graph | Digraph, cert: FlowerCertificate
) -> None:
    """Structural check: every petal is a forbidden cycle through the
    center and petals pairwise share exactly the center."""
    directed = PROBLEMS[problem].directed
    for petal in cert.petals:
        if petal[0] != cert.center or len(set(petal)) != len(petal):
            raise AssertionError(f"bad petal {petal}")
        size = len(petal)
        if directed:
            if size < 2:
                raise AssertionError(f"petal too short: {petal}")
            for i in range(size):
                if not g.has_arc(petal[i], petal[(i + 1) % size]):
                    raise AssertionError(f"petal {petal} misses an arc")
        else:
            if size < 3:
                raise AssertionError(f"petal too short: {petal}")
            for i in range(size):
                if not g.has_edge(petal[i], petal[(i + 1) % size]):
                    raise AssertionError(f"petal {petal} misses an edge")
        if problem == "oct" and size % 2 == 0:
            raise AssertionError(f"even petal in an odd-cycle flower: {petal}")
    for i in range(len(cert.petals)):
        for j in range(i + 1, len(cert.petals)):
            common = set(cert.petals[i]) & set(cert.petals[j])
            if common != {cert.center}:
                raise AssertionError("petals overlap outside the center")
