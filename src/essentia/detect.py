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

Every cycle through v lies in one block (biconnected component of the
underlying undirected graph, ``graphs.blocks``) that contains v, so the
flower numbers of fvs, oct and dfvs depend only on v's span: the union
of the blocks that contain v, or v alone.  doct's score depends on v's
weak component instead, because an odd closed walk through v can leave
v's block at a cut vertex and flip its parity on an odd cycle there.
Each vertex gets one kernel call on the subgraph induced by its span
(``graphs.induced``, which keeps the vertex order); vertices with equal
spans, such as the non-cut vertices of one block, share that subgraph,
and the certificates are mapped back to g's ids.  vc stays whole:
it is one matching of the double cover ``label_extended(g)``, not one
kernel per vertex; there, as in the packers' auxiliary graphs, v's
copies are 2v and 2v + 1.  cvd stays whole too: its avoiding-LP cost is
a sum over the whole graph, and all n pinned LPs run on one
``lp.PooledLP``, each pin moved by a cost change from the last optimal
basis, with every hole found so far.

``detector_factory`` scores once and sorts the vertices by score, so the
detector for each k is a binary search plus sorting what it returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .flows import min_vertex_separator
from .graphs import Digraph, Graph, blocks, components, induced, isolate, spans
from .lp import LPState, PooledLP, solve_v_avoiding_lp
from .matching import min_vertex_cover_bipartite
from .problems import PROBLEMS
from .tpaths import max_T_path_packing, max_odd_T_path_packing


@dataclass(frozen=True)
class FlowerCertificate:
    """Forbidden cycles pairwise intersecting exactly in the center."""

    center: int
    petals: tuple[tuple[int, ...], ...]  # each starts at the center

    def relabel(self, vs: tuple[int, ...]) -> FlowerCertificate:
        """The certificate with every vertex i renamed vs[i]."""
        return FlowerCertificate(
            vs[self.center], tuple([tuple([vs[x] for x in p]) for p in self.petals]))


@dataclass(frozen=True)
class DoctCertificate:
    """Separator evidence between the parity copies of a vertex; labels
    are (vertex, parity) pairs of the label-extended digraph."""

    vertex: int
    separator: frozenset[tuple[int, int]]
    paths: tuple[tuple[tuple[int, int], ...], ...]

    def relabel(self, vs: tuple[int, ...]) -> DoctCertificate:
        """The certificate with every vertex i renamed vs[i]."""
        return DoctCertificate(
            vs[self.vertex],
            frozenset((vs[x], parity) for x, parity in self.separator),
            tuple([tuple([(vs[x], parity) for x, parity in p]) for p in self.paths]),
        )


@dataclass(frozen=True)
class DetectionResult:
    problem: str
    k: int
    vertices: frozenset[int]
    certificates: dict[int, object] = field(default_factory=dict)
    assignment: tuple[Fraction, ...] | None = None  # vc's LP values


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
    g: Graph, v: int, packer: Callable[..., tuple], odd: bool
) -> tuple[int, FlowerCertificate]:
    """Petals through v from a T-path packing in G - v with the neighbors
    of v as terminals, each closed through v and shortened along chords."""
    packing = packer(isolate(g, v), g.neighbors(v))
    petals = tuple([_shorten([v, *p], g.has_edge, odd) for p in packing])
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
    """Maximum number of directed cycles pairwise meeting only at v: the
    Menger system from v back to v."""
    res = min_vertex_separator(d, v, v)
    petals = tuple([_shorten(list(p[:-1]), d.has_arc) for p in res.paths])
    return res.size, FlowerCertificate(v, petals)


def vc_lp_halfintegral(g: Graph) -> list[Fraction]:
    """An optimal half-integral solution of the edge-covering relaxation:
    x_v is half the number of v's copies in a minimum vertex cover of the
    bipartite double cover ``label_extended(g)``."""
    cover = min_vertex_cover_bipartite(label_extended(g), [0, 1] * g.n)
    return [Fraction((2 * v in cover) + (2 * v + 1 in cover), 2) for v in range(g.n)]


def label_extended(g: Graph | Digraph) -> Graph | Digraph:
    """Parity-split double cover: v maps to 2v (even copy) and 2v+1 (odd
    copy); an arc (u, w) of a digraph, or an edge uw of a graph, induces
    (2u, 2w+1) and (2u+1, 2w)."""
    pairs = []
    for u, w in g.arcs() if g.directed else g.edges():
        pairs.append((2 * u, 2 * w + 1))
        pairs.append((2 * u + 1, 2 * w))
    return type(g)(2 * g.n, pairs)


def _doct_scores(d: Digraph, vs: Iterable[int]) -> list[tuple[int, DoctCertificate]]:
    """Minimum separator between the copies of each v of vs in the
    label-extended digraph; its size bounds packings of odd closed walks
    through v."""
    ext = label_extended(d)
    out = []
    for v in vs:
        res = min_vertex_separator(ext, 2 * v, 2 * v + 1)
        # divmod(x, 2) maps a copy back to its (vertex, parity) label.
        cert = DoctCertificate(
            v,
            frozenset(divmod(x, 2) for x in res.separator),
            tuple([tuple([divmod(x, 2) for x in p]) for p in res.paths]),
        )
        out.append((res.size, cert))
    return out


def _vc_scores(g: Graph) -> list[tuple[Fraction, Fraction]]:
    return [(2 * x, x) for x in vc_lp_halfintegral(g)]


def _cvd_scores(g: Graph) -> list[tuple[Fraction, LPState]]:
    pooled = PooledLP(g)
    states = [solve_v_avoiding_lp(g, v, pooled) for v in range(g.n)]
    return [(state.cost, state) for state in states]


def _per_span(parts: Callable, score_fn: Callable) -> Callable:
    """score_fn(h, vs) run once per distinct span (``graphs.spans`` of
    parts(g)), on its induced subgraph h for the vertices vs (h's ids)
    that have that span, with the scores and certificates mapped back to
    the ids of the whole graph."""
    def scores(g: Graph | Digraph) -> list:
        groups: dict[tuple[int, ...], list[int]] = {}
        for v, span in enumerate(spans(parts(g), g.n)):
            groups.setdefault(span, []).append(v)
        out: list = [None] * g.n
        for span, vs in groups.items():
            whole = len(span) == g.n  # then g itself, with nothing to relabel
            h = g if whole else induced(g, span)
            local = vs if whole else [bisect_left(span, v) for v in vs]
            for v, (score, cert) in zip(vs, score_fn(h, local)):
                out[v] = (score, cert if whole else cert.relabel(span))
        return out

    return scores


def _each_vertex(flower_number: Callable) -> Callable:
    return lambda h, vs: [flower_number(h, v) for v in vs]


# problem -> (per-vertex (score, certificate) list, bar(k)).
_SCORES: dict[str, tuple[Callable, Callable[[int], int]]] = {
    "fvs": (_per_span(blocks, _each_vertex(flower_number_fvs)), lambda k: k),
    "oct": (_per_span(blocks, _each_vertex(flower_number_oct)), lambda k: k),
    "dfvs": (_per_span(blocks, _each_vertex(flower_number_dfvs)), lambda k: k),
    "doct": (_per_span(components, _doct_scores), lambda k: 2 * k),
    "vc": (_vc_scores, lambda k: 1),
    "cvd": (_cvd_scores, lambda k: k),
}


def detector_factory(problem: str, g: Graph | Digraph) -> Callable[[int], DetectionResult]:
    """Score every vertex once; the returned closure evaluates the
    detector for any budget k by a binary search over the sorted scores."""
    PROBLEMS[problem].check_graph(g)
    score_fn, bar = _SCORES[problem]
    scored = score_fn(g)
    assignment = tuple([x for _, x in scored]) if problem == "vc" else None
    by_score = sorted(range(g.n), key=lambda v: scored[v][0])
    keys = [scored[v][0] for v in by_score]

    def detector(k: int) -> DetectionResult:
        if k >= g.n:
            # opt < n <= k on non-empty graphs: G2 asks for nothing, {} meets G1.
            return DetectionResult(problem, k, frozenset(), {}, assignment)
        chosen = sorted(by_score[bisect_right(keys, bar(k)):])
        certs = {v: scored[v][1] for v in chosen}
        return DetectionResult(problem, k, frozenset(chosen), certs, assignment)

    return detector


def detect(problem: str, g: Graph | Digraph, k: int) -> DetectionResult:
    """Run the problem's detector on (g, k)."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    return detector_factory(problem, g)(k)
