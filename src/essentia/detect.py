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
spans, such as the non-cut vertices of one block, share that subgraph.
vc stays whole: it is one matching of the double cover
``label_extended(g)``, not one kernel per vertex; there, as in the
packers' auxiliary graphs, v's copies are 2v and 2v + 1.  cvd stays
whole too: its avoiding-LP cost is a sum over the whole graph, and all
n pinned LPs run on one ``lp.PooledLP``, each pin moved by a cost change
from the last optimal basis, with every hole found so far.

Scoring keeps each vertex's kernel output (a T-path packing, a Menger
path system, or for doct a ``flows.SeparatorResult``, in its span's ids)
and builds no certificate.  A certificate is built only when it is
read: the petals or paths are mapped to g's ids through the span, and
each petal is then shortened along g's chords, which inside the span
are the induced subgraph's.  ``DetectionResult.certificates`` is a
read-only mapping over the selected vertices that builds each
certificate on first read and keeps it for every k of the detector;
``meta_solve`` reads only the vertices, so it builds none.

``detector_factory`` scores once and sorts the vertices by score, so the
detector for each k is a binary search plus sorting what it returns.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .flows import SeparatorResult, min_vertex_separator
from .graphs import Digraph, Graph, blocks, components, induced, isolate, spans
from .lp import PooledLP, solve_v_avoiding_lp
from .matching import min_vertex_cover_bipartite
from .problems import PROBLEMS
from .tpaths import max_T_path_packing, max_odd_T_path_packing


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


class _Certificates(Mapping):
    """The certificates of the selected vertices: certify(v) builds v's
    on its first read, and built keeps it."""

    __slots__ = ("_vertices", "_built", "_certify")

    def __init__(self, vertices: frozenset[int], built: dict, certify: Callable[[int], object]):
        self._vertices, self._built, self._certify = vertices, built, certify

    def __getitem__(self, v: int) -> object:
        if v not in self._vertices:
            raise KeyError(v)
        if v not in self._built:
            self._built[v] = self._certify(v)
        return self._built[v]

    def __contains__(self, v: object) -> bool:
        return v in self._vertices  # without building the certificate

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._vertices))

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class DetectionResult:
    problem: str
    k: int
    vertices: frozenset[int]
    certificates: Mapping[int, object] = field(default_factory=dict)
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


# Kernels: v's score and the raw output that certifies it.

def _packing(g: Graph, v: int, odd: bool = False) -> tuple[int, tuple]:
    packer = max_odd_T_path_packing if odd else max_T_path_packing
    packing = packer(isolate(g, v), g.neighbors(v))
    return len(packing), packing


def _dfvs_system(d: Digraph, v: int) -> tuple[int, tuple]:
    res = min_vertex_separator(d, v, v)
    return res.size, res.paths


def _doct_scores(d: Digraph, vs: Iterable[int]) -> list[tuple[int, SeparatorResult]]:
    """Minimum separator between the copies of each v of vs in the
    label-extended digraph; its size bounds packings of odd closed walks
    through v."""
    ext = label_extended(d)
    out = []
    for v in vs:
        res = min_vertex_separator(ext, 2 * v, 2 * v + 1)
        out.append((res.size, res))
    return out


# Certificates: v's from its kernel output, whose vertex i is vs[i] of g.

def _petals(g: Graph, v: int, packing: tuple, vs: Sequence[int], odd: bool = False) -> FlowerCertificate:
    """Each T-path closed through v and shortened along chords."""
    return FlowerCertificate(
        v, tuple([_shorten([v, *[vs[x] for x in p]], g.has_edge, odd) for p in packing]))


def _dicycles(d: Digraph, v: int, paths: tuple, vs: Sequence[int]) -> FlowerCertificate:
    """Each Menger cycle v..v, less its closing v, shortened along chords."""
    return FlowerCertificate(
        v, tuple([_shorten([vs[x] for x in p[:-1]], d.has_arc) for p in paths]))


def _doct_certificate(d: Digraph, v: int, res: SeparatorResult, vs: Sequence[int]) -> DoctCertificate:
    """The separator and paths, each copy x read as the label (vertex of
    g, parity) = (vs[x >> 1], x & 1)."""
    return DoctCertificate(
        v,
        frozenset([(vs[x >> 1], x & 1) for x in res.separator]),
        tuple([tuple([(vs[x >> 1], x & 1) for x in p]) for p in res.paths]),
    )


def flower_number_fvs(g: Graph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of cycles pairwise meeting only at v: T-path packing
    in G - v with the neighbors of v as terminals."""
    score, packing = _packing(g, v)
    return score, _petals(g, v, packing, range(g.n))


def flower_number_oct(g: Graph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of odd cycles pairwise meeting only at v: odd T-path
    packing in G - v closed through v."""
    score, packing = _packing(g, v, odd=True)
    return score, _petals(g, v, packing, range(g.n), odd=True)


def flower_number_dfvs(d: Digraph, v: int) -> tuple[int, FlowerCertificate]:
    """Maximum number of directed cycles pairwise meeting only at v: the
    Menger system from v back to v."""
    score, paths = _dfvs_system(d, v)
    return score, _dicycles(d, v, paths, range(d.n))


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


# Scorers: g -> (every vertex's score, v -> v's certificate).

def _vc_scores(g: Graph) -> tuple[list[int], Callable[[int], Fraction]]:
    """2 x_v, which is 0, 1 or 2; x_v is v's certificate."""
    xs = vc_lp_halfintegral(g)
    return [int(2 * x) for x in xs], xs.__getitem__


def _cvd_scores(g: Graph) -> tuple[list[Fraction], Callable]:
    pooled = PooledLP(g)
    states = [solve_v_avoiding_lp(g, v, pooled) for v in range(g.n)]
    return [state.cost for state in states], states.__getitem__


def _per_span(parts: Callable, score_fn: Callable, certify: Callable) -> Callable:
    """score_fn(h, vs) run once per distinct span (``graphs.spans`` of
    parts(g)), on its induced subgraph h for the vertices vs (h's ids)
    that have that span; v's certificate is certify(g, v, raw, span),
    from its kernel output raw in h's ids."""
    def scores(g: Graph | Digraph) -> tuple[list[int], Callable]:
        groups: dict[tuple[int, ...], list[int]] = {}
        for v, span in enumerate(spans(parts(g), g.n)):
            groups.setdefault(span, []).append(v)
        out = [0] * g.n
        kept: list = [None] * g.n  # v -> (raw, span)
        for span, vs in groups.items():
            whole = len(span) == g.n  # then g itself, and span[i] == i
            h = g if whole else induced(g, span)
            local = vs if whole else [bisect_left(span, v) for v in vs]
            for v, (score, raw) in zip(vs, score_fn(h, local)):
                out[v] = score
                kept[v] = (raw, span)
        return out, lambda v: certify(g, v, *kept[v])

    return scores


def _each_vertex(kernel: Callable) -> Callable:
    return lambda h, vs: [kernel(h, v) for v in vs]


# problem -> (scorer, bar(k)).
_SCORES: dict[str, tuple[Callable, Callable[[int], int]]] = {
    "fvs": (_per_span(blocks, _each_vertex(_packing), _petals), lambda k: k),
    "oct": (_per_span(blocks, _each_vertex(partial(_packing, odd=True)),
                      partial(_petals, odd=True)), lambda k: k),
    "dfvs": (_per_span(blocks, _each_vertex(_dfvs_system), _dicycles), lambda k: k),
    "doct": (_per_span(components, _doct_scores, _doct_certificate), lambda k: 2 * k),
    "vc": (_vc_scores, lambda k: 1),
    "cvd": (_cvd_scores, lambda k: k),
}


def detector_factory(problem: str, g: Graph | Digraph) -> Callable[[int], DetectionResult]:
    """Score every vertex once; the returned closure evaluates the
    detector for any budget k by a binary search over the sorted scores.
    Its results share one cache of the certificates read so far."""
    PROBLEMS[problem].check_graph(g)
    score_fn, bar = _SCORES[problem]
    scores, certify = score_fn(g)
    assignment = tuple([certify(v) for v in range(g.n)]) if problem == "vc" else None
    by_score = sorted(range(g.n), key=scores.__getitem__)
    keys = [scores[v] for v in by_score]
    built: dict[int, object] = {}  # v -> certificate, for every k

    def detector(k: int) -> DetectionResult:
        if k >= g.n:
            # opt < n <= k on non-empty graphs: G2 asks for nothing, {} meets G1.
            return DetectionResult(problem, k, frozenset(), {}, assignment)
        chosen = frozenset(sorted(by_score[bisect_right(keys, bar(k)):]))
        return DetectionResult(problem, k, chosen, _Certificates(chosen, built, certify), assignment)

    return detector


def detect(problem: str, g: Graph | Digraph, k: int) -> DetectionResult:
    """Run the problem's detector on (g, k)."""
    if k < 0:
        raise ValueError("budget must be non-negative")
    return detector_factory(problem, g)(k)
