"""Brute-force ground truth: exact optima, exact essential-vertex sets,
exact flower numbers, and the detection-contract verifier.

Everything here re-derives class membership from scratch on bitmasks
(edge-freeness, forest/DAG checks, 2-colorability, parity-labelled
reachability, maximum-cardinality-search chordality) so that the oracle
shares no code path with the production kernels it is used to judge.

Instances decompose into connected components before enumeration; caps
apply per component and exceeding one raises, never truncates.
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

    def components(self) -> list[tuple[int, ...]]:
        seen = 0
        comps = []
        for r in range(self.n):
            if seen >> r & 1:
                continue
            comp = 1 << r
            frontier = [r]
            while frontier:
                x = frontier.pop()
                fresh = self.und[x] & ~comp
                while fresh:
                    b = fresh & -fresh
                    comp |= b
                    frontier.append(b.bit_length() - 1)
                    fresh &= fresh - 1
            seen |= comp
            comps.append(tuple(_bits(comp)))
        return comps


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask &= mask - 1


def _edgeless(m: _Masks, alive: int) -> bool:
    return all(m.und[v] & alive == 0 for v in _bits(alive))


def _forest(m: _Masks, alive: int) -> bool:
    edges = sum((m.und[v] & alive).bit_count() for v in _bits(alive)) // 2
    n_alive = alive.bit_count()
    comps = 0
    seen = 0
    for r in _bits(alive):
        if seen >> r & 1:
            continue
        comps += 1
        grow = 1 << r
        frontier = [r]
        while frontier:
            x = frontier.pop()
            fresh = m.und[x] & alive & ~grow
            while fresh:
                b = fresh & -fresh
                grow |= b
                frontier.append(b.bit_length() - 1)
                fresh &= fresh - 1
        seen |= grow
    return edges == n_alive - comps


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


def _component_optima(
    problem: str, m: _Masks, comp: tuple[int, ...], cap: int
) -> tuple[int, list[frozenset[int]]]:
    if len(comp) > cap:
        raise OracleCapExceeded(
            f"component of size {len(comp)} exceeds cap {cap}"
        )
    check = _FEASIBLE[problem]
    full = 0
    for v in comp:
        full |= 1 << v
    for k in range(len(comp) + 1):
        sols = []
        for sub in combinations(comp, k):
            alive = full
            for v in sub:
                alive &= ~(1 << v)
            if check(m, alive):
                sols.append(frozenset(sub))
        if sols:
            return k, sols
    raise AssertionError("deleting the whole component must be feasible")


def brute_opt(
    problem: str, g: Graph | Digraph, caps: OracleCaps = OracleCaps()
) -> tuple[int, tuple[frozenset[int], ...]]:
    """Exact optimum and all optimal solutions, by increasing-size subset
    enumeration per connected component."""
    m = _Masks(g)
    opt = 0
    per_comp: list[list[frozenset[int]]] = []
    for comp in m.components():
        k, sols = _component_optima(problem, m, comp, caps.opt_component)
        opt += k
        per_comp.append(sols)
    combined: list[frozenset[int]] = [frozenset()]
    for sols in per_comp:
        combined = [acc | s for acc in combined for s in sols]
        if len(combined) > caps.max_solutions:
            raise OracleCapExceeded("too many optimal solutions to enumerate")
    return opt, tuple(combined)


def _exists_avoiding_within(
    problem: str, m: _Masks, comp: tuple[int, ...], v: int, budget: int
) -> bool:
    """Is there a feasible deletion set of the component avoiding v with
    size at most budget?"""
    check = _FEASIBLE[problem]
    others = [u for u in comp if u != v]
    full = 0
    for u in comp:
        full |= 1 << u
    top = min(budget, len(others))
    for k in range(top + 1):
        for sub in combinations(others, k):
            alive = full
            for u in sub:
                alive &= ~(1 << u)
            if check(m, alive):
                return True
    return False


def brute_essential(
    problem: str,
    g: Graph | Digraph,
    c: float,
    caps: OracleCaps = OracleCaps(),
) -> frozenset[int]:
    """All vertices contained in every feasible solution of size at most
    floor(c * opt)."""
    m = _Masks(g)
    comps = m.components()
    comp_data = []
    opt = 0
    for comp in comps:
        if len(comp) > caps.essential_component:
            raise OracleCapExceeded(
                f"component of size {len(comp)} exceeds cap {caps.essential_component}"
            )
        k, sols = _component_optima(problem, m, comp, caps.essential_component)
        comp_data.append((comp, k, sols))
        opt += k
    bound = floor(min(c * opt, g.n))  # no solution exceeds n; c * opt may be inf
    essential = set()
    for comp, comp_opt, sols in comp_data:
        # Essential vertices lie in every optimal solution; intersect
        # component optima first to prune the expensive avoidance test.
        common = frozenset(comp)
        for s in sols:
            common &= s
            if not common:
                break
        comp_budget = bound - (opt - comp_opt)
        for v in sorted(common):
            if not _exists_avoiding_within(problem, m, comp, v, comp_budget):
                essential.add(v)
    return frozenset(essential)


def oracle_report(
    problem: str,
    g: Graph | Digraph,
    c: float | None = None,
    caps: OracleCaps = OracleCaps(),
) -> OracleReport:
    if c is None:
        c = PROBLEMS[problem].c
    opt, sols = brute_opt(problem, g, caps)
    essential = brute_essential(problem, g, c, caps)
    return OracleReport(problem, c, opt, sols, essential)


def _simple_cycles_through(
    g: Graph | Digraph, v: int
) -> list[frozenset[int]]:
    """Vertex sets of simple cycles through v (deduplicated)."""
    out: set[frozenset[int]] = set()
    directed = isinstance(g, Digraph)

    def nbrs(x: int):
        return g.successors(x) if directed else g.neighbors(x)

    def closes(x: int) -> bool:
        return g.has_arc(x, v) if directed else g.has_edge(x, v)

    path = [v]
    on_path = {v}

    def extend() -> None:
        x = path[-1]
        if len(path) >= (2 if directed else 3) and closes(x):
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
    if c is None:
        c = PROBLEMS[problem].c
    chosen = frozenset(chosen)
    m = _Masks(g)
    comps = m.components()
    opt = 0
    per_comp = []
    for comp in comps:
        ck, sols = _component_optima(problem, m, comp, caps.opt_component)
        opt += ck
        per_comp.append((frozenset(comp), sols))
    if opt <= k:
        for comp_set, sols in per_comp:
            part = chosen & comp_set
            if not any(part <= s for s in sols):
                return False, (
                    f"G1 violated: {sorted(part)} lies in no optimal solution "
                    f"of its component"
                )
    if opt == k:
        essential = brute_essential(problem, g, c, caps)
        if not essential <= chosen:
            missing = sorted(essential - chosen)
            return False, f"G2 violated: essential vertices {missing} not selected"
    return True, "ok"
