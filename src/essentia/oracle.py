"""Brute-force ground truth: exact optima, exact essential-vertex sets,
exact flower numbers, and the detection-contract verifier.

Everything here re-derives class membership from scratch on bitmasks
(edge-freeness, forest/DAG checks, 2-colorability, parity-labelled
reachability, maximum-cardinality-search chordality) so that the oracle
shares no code path with the production kernels it is used to judge.

Each public call enumerates every connected component once, into one
table of (component, optimum, all optimal solutions); the essential
set's avoidance test then enumerates a single subset size, which the
heredity of every target class makes exact.  Caps apply per component
and exceeding one raises, never truncates.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import floor

from .graphs import Digraph, Graph
from .problems import PROBLEMS


class OracleCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class OracleCaps:
    opt_component: int = 12
    essential_component: int = 9
    flower: int = 10
    max_solutions: int = 100_000


@dataclass(frozen=True)
class OracleReport:
    problem: str
    c: float
    opt: int
    optimal_solutions: tuple[frozenset[int], ...]
    essential: frozenset[int]

    @property
    def ell(self) -> int:
        return self.opt - len(self.essential)


class _Masks:
    """Adjacency bitmasks; und holds the symmetrized adjacency used for
    components, out/inc the arc directions for directed checks."""

    def __init__(self, g: Graph | Digraph):
        self.n = g.n
        self.directed = isinstance(g, Digraph)
        self.und = [0] * g.n
        if self.directed:
            self.out = [0] * g.n
            self.inc = [0] * g.n
            for u, v in g.arcs():
                self.out[u] |= 1 << v
                self.inc[v] |= 1 << u
                self.und[u] |= 1 << v
                self.und[v] |= 1 << u
        else:
            for u, v in g.edges():
                self.und[u] |= 1 << v
                self.und[v] |= 1 << u

def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask &= mask - 1


def _flood(und: list[int], alive: int) -> list[int]:
    """Masks of the components that alive induces under und, ordered by
    least vertex."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            reach = 0
            for x in _bits(frontier):
                reach |= und[x]
            frontier = reach & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def _edgeless(m: _Masks, alive: int) -> bool:
    return all(m.und[v] & alive == 0 for v in _bits(alive))


def _forest(m: _Masks, alive: int) -> bool:
    edges = sum((m.und[v] & alive).bit_count() for v in _bits(alive)) // 2
    return edges == alive.bit_count() - len(_flood(m.und, alive))


def _two_colorable(m: _Masks, alive: int) -> bool:
    color: dict[int, int] = {}
    for r in _bits(alive):
        if r in color:
            continue
        color[r] = 0
        queue = deque([r])
        while queue:
            x = queue.popleft()
            for y in _bits(m.und[x] & alive):
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _dag(m: _Masks, alive: int) -> bool:
    indeg = {v: (m.inc[v] & alive).bit_count() for v in _bits(alive)}
    queue = deque(v for v, d in indeg.items() if d == 0)
    done = 0
    while queue:
        x = queue.popleft()
        done += 1
        for y in _bits(m.out[x] & alive):
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    return done == alive.bit_count()


def _no_odd_dicycle(m: _Masks, alive: int) -> bool:
    for s in _bits(alive):
        # Parity-labelled reachability from (s, 0) back to (s, 1).
        seen = {(s, 0)}
        queue = deque([(s, 0)])
        while queue:
            x, a = queue.popleft()
            for y in _bits(m.out[x] & alive):
                state = (y, 1 - a)
                if state == (s, 1):
                    return False
                if state not in seen:
                    seen.add(state)
                    queue.append(state)
    return True


def _chordal(m: _Masks, alive: int) -> bool:
    # Maximum cardinality search; its reverse is a perfect elimination
    # order exactly on chordal graphs.
    verts = list(_bits(alive))
    weight = {v: 0 for v in verts}
    order = []
    left = set(verts)
    while left:
        v = max(left, key=lambda u: (weight[u], -u))
        left.remove(v)
        order.append(v)
        for y in _bits(m.und[v] & alive):
            if y in left:
                weight[y] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in verts:
        earlier = [u for u in _bits(m.und[v] & alive) if pos[u] < pos[v]]
        if not earlier:
            continue
        p = max(earlier, key=pos.__getitem__)
        for u in earlier:
            if u != p and not (m.und[p] >> u & 1):
                return False
    return True


_FEASIBLE = {
    "vc": _edgeless,
    "fvs": _forest,
    "oct": _two_colorable,
    "dfvs": _dag,
    "doct": _no_odd_dicycle,
    "cvd": _chordal,
}


def feasible(problem: str, g: Graph | Digraph, removed) -> bool:
    """Is removed a valid deletion set (G - removed in the target class)?"""
    m = _Masks(g)
    alive = (1 << g.n) - 1
    for v in removed:
        alive &= ~(1 << v)
    return _FEASIBLE[problem](m, alive)


def _feasible_subsets(problem: str, m: _Masks, comp: tuple[int, ...], pool, k: int):
    """The k-subsets of pool whose deletion leaves comp in the problem's
    class, in combinations order."""
    check = _FEASIBLE[problem]
    full = 0
    for v in comp:
        full |= 1 << v
    for sub in combinations(pool, k):
        alive = full
        for v in sub:
            alive &= ~(1 << v)
        if check(m, alive):
            yield frozenset(sub)


def _over_cap(comp: tuple[int, ...], cap: int) -> None:
    if len(comp) > cap:
        raise OracleCapExceeded(f"component of size {len(comp)} exceeds cap {cap}")


def _optima(problem: str, m: _Masks, cap: int) -> list:
    """(component, optimum, all optimal solutions) for every component,
    by increasing-size subset enumeration."""
    table = []
    for mask in _flood(m.und, (1 << m.n) - 1):
        comp = tuple(_bits(mask))
        _over_cap(comp, cap)
        for k in range(len(comp) + 1):
            if sols := list(_feasible_subsets(problem, m, comp, comp, k)):
                break
        else:
            raise AssertionError("deleting the whole component must be feasible")
        table.append((comp, k, sols))
    return table


def _opt_solutions(table: list, caps: OracleCaps) -> tuple[int, tuple[frozenset[int], ...]]:
    combined: list[frozenset[int]] = [frozenset()]
    for _, _, sols in table:
        combined = [acc | s for acc in combined for s in sols]
        if len(combined) > caps.max_solutions:
            raise OracleCapExceeded("too many optimal solutions to enumerate")
    return sum(k for _, k, _ in table), tuple(combined)


def brute_opt(
    problem: str, g: Graph | Digraph, caps: OracleCaps = OracleCaps()
) -> tuple[int, tuple[frozenset[int], ...]]:
    """Exact optimum and all optimal solutions, by increasing-size subset
    enumeration per connected component."""
    return _opt_solutions(_optima(problem, _Masks(g), caps.opt_component), caps)


def _approximation(problem: str, c: float | None) -> float:
    """c, or the problem's default when None; c-essential vertices are
    defined for c >= 1 only (infinity included)."""
    c = PROBLEMS[problem].c if c is None else c
    if not c >= 1:
        raise ValueError(f"c must be at least 1, got {c}")
    return c


def _essential(problem: str, m: _Masks, table: list, c: float, cap: int) -> frozenset[int]:
    """All vertices contained in every feasible solution of size at most
    floor(c * opt), from the optima table of m.

    A vertex v of a component is essential when it lies in every optimum
    of the component and no feasible deletion set of comp - v fits the
    component's share of the bound.  The avoidance test enumerates one
    size only, min(share, |comp| - 1): every target class is hereditary,
    so a feasible set of size at most the share that avoids v grows,
    inside comp - v, to a feasible set of exactly that size.
    """
    for comp, _, _ in table:
        _over_cap(comp, cap)
    opt = sum(k for _, k, _ in table)
    bound = floor(min(c * opt, m.n)) if opt else 0  # c * opt may be inf
    essential = set()
    for comp, comp_opt, sols in table:
        top = min(bound - (opt - comp_opt), len(comp) - 1)
        for v in frozenset(comp).intersection(*sols):
            others = [u for u in comp if u != v]
            if next(_feasible_subsets(problem, m, comp, others, top), None) is None:
                essential.add(v)
    return frozenset(essential)


def brute_essential(
    problem: str,
    g: Graph | Digraph,
    c: float,
    caps: OracleCaps = OracleCaps(),
) -> frozenset[int]:
    """All vertices contained in every feasible solution of size at most
    floor(c * opt); raises ValueError unless c >= 1."""
    c = _approximation(problem, c)
    m = _Masks(g)
    cap = caps.essential_component
    return _essential(problem, m, _optima(problem, m, cap), c, cap)


def oracle_report(
    problem: str,
    g: Graph | Digraph,
    c: float | None = None,
    caps: OracleCaps = OracleCaps(),
) -> OracleReport:
    c = _approximation(problem, c)
    m = _Masks(g)
    table = _optima(problem, m, caps.opt_component)
    opt, sols = _opt_solutions(table, caps)
    essential = _essential(problem, m, table, c, caps.essential_component)
    return OracleReport(problem, c, opt, sols, essential)


def _simple_cycles_through(
    g: Graph | Digraph, v: int
) -> list[frozenset[int]]:
    """Vertex sets of simple cycles through v (deduplicated)."""
    out: set[frozenset[int]] = set()
    directed = isinstance(g, Digraph)
    nbrs = g.successors if directed else g.neighbors
    adjacent = g.has_arc if directed else g.has_edge
    path = [v]
    on_path = {v}

    def extend() -> None:
        x = path[-1]
        if len(path) >= (2 if directed else 3) and adjacent(x, v):
            if directed or path[1] < path[-1]:  # one orientation per cycle
                out.add(frozenset(path))
        for y in nbrs(x):
            if y not in on_path:
                path.append(y)
                on_path.add(y)
                extend()
                path.pop()
                on_path.remove(y)

    extend()
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_flower(
    g: Graph | Digraph,
    v: int,
    family: str,
    caps: OracleCaps = OracleCaps(),
) -> int:
    """Largest number of forbidden structures pairwise intersecting
    exactly in v, over simple cycles of the family through v.

    family is one of cycles, odd-cycles, directed-cycles.
    """
    if g.n > caps.flower:
        raise OracleCapExceeded(f"n={g.n} exceeds flower cap {caps.flower}")
    directed = isinstance(g, Digraph)
    if family == "directed-cycles":
        if not directed:
            raise ValueError("directed-cycles needs a digraph")
    elif family in ("cycles", "odd-cycles"):
        if directed:
            raise ValueError(f"{family} needs an undirected graph")
    else:
        raise ValueError(f"unknown family {family!r}")
    candidates = [
        s - {v}
        for s in _simple_cycles_through(g, v)
        if family != "odd-cycles" or len(s) % 2 == 1
    ]

    def pack(i: int, used: frozenset[int]) -> int:
        best = 0
        for j in range(i, len(candidates)):
            if not (candidates[j] & used):
                best = max(best, 1 + pack(j + 1, used | candidates[j]))
        return best

    return pack(0, frozenset())


def verify_detection(
    problem: str,
    g: Graph | Digraph,
    k: int,
    chosen,
    c: float | None = None,
    caps: OracleCaps = OracleCaps(),
) -> tuple[bool, str]:
    """Check the detection contract of a returned set against the oracle:
    containment in some optimal solution when opt <= k, and coverage of
    all essential vertices when opt == k."""
    c = _approximation(problem, c)
    chosen = frozenset(chosen)
    m = _Masks(g)
    table = _optima(problem, m, caps.opt_component)
    opt = sum(ck for _, ck, _ in table)
    if opt <= k:
        for comp, _, sols in table:
            part = chosen.intersection(comp)
            if not any(part <= s for s in sols):
                return False, (
                    f"G1 violated: {sorted(part)} lies in no optimal solution "
                    f"of its component"
                )
    if opt == k:
        essential = _essential(problem, m, table, c, caps.essential_component)
        if not essential <= chosen:
            missing = sorted(essential - chosen)
            return False, f"G2 violated: essential vertices {missing} not selected"
    return True, "ok"
