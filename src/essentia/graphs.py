"""Simple immutable graph and digraph types shared by every algorithm.

Vertices are dense 0-based integers.  Both types hold one
representation: sorted tuples of out- and in-neighbours per vertex.  An
undirected graph stores each edge as two arcs, so its in-rows are its
out-rows, and ``has_edge`` / ``has_arc`` scan one row in O(degree).
Deleting vertices keeps every id: the deleted vertices stay behind
isolated, so a set found on the residual graph needs no translation
back, and every untouched row is shared with the input.

``components`` splits a graph into weak components (an arc joins its two
ends either way) and ``blocks`` into biconnected components of the same
underlying undirected graph; ``spans`` maps each vertex to the union of
the parts that contain it.  ``induced`` relabels a vertex subset to 0,
1, ... in increasing order, so every row stays sorted and each vertex
keeps its place relative to the others; the per-vertex detection kernels
run on one span at a time this way.

The on-disk format is line based:

    p ud <n> <m>      undirected header   (``p di <n> <m>`` for directed)
    e <u> <v>         one line per edge, 1-based vertex ids
    c ...             comment, ignored

Self-loops, duplicate edges, out-of-range ids and a header of more than
``MAX_VERTICES`` vertices are rejected with the offending line number.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence


MAX_VERTICES = 10**6  # the most vertices parse_graph accepts


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Parse failure; carries the 1-based line number of the offence."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _Adjacency:
    """The core of Graph and Digraph: n and the rows _out and _in."""

    __slots__ = ("n", "_out", "_in")
    directed: bool
    _pair: str  # "edge" or "arc", for error messages
    _tag: str  # header type in the file format

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        out: list[set[int]] = [set() for _ in range(n)]
        inc = [set() for _ in range(n)] if self.directed else out
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range in {self._pair} ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in out[u]:
                raise GraphError(f"duplicate {self._pair} ({u}, {v})")
            out[u].add(v)
            inc[v].add(u)
        self._out = tuple([tuple(sorted(s)) for s in out])
        self._in = tuple([tuple(sorted(s)) for s in inc]) if self.directed else self._out

    @property
    def m(self) -> int:
        arcs = sum(len(row) for row in self._out)
        return arcs if self.directed else arcs // 2

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Graph(_Adjacency):
    """Undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = ()
    directed = False
    _pair = "edge"
    _tag = "ud"

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._out

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._out[u]

    def degree(self, v: int) -> int:
        return len(self._out[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._out[u]:
                if u < v:
                    yield (u, v)


class Digraph(_Adjacency):
    """Directed simple graph: no self-loops, no parallel arcs.

    Antiparallel pairs (u, v) and (v, u) are legal; a 2-cycle is an even
    directed cycle and deliberately part of the instance space.
    """

    __slots__ = ()
    directed = True
    _pair = "arc"
    _tag = "di"

    def successors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._out[u]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._out[u]:
                yield (u, v)


def _drop(rows: tuple, w: int, at: tuple[int, ...]) -> tuple:
    """rows with w taken out of the rows in at and row w emptied; every
    other row is shared with the input."""
    rows = list(rows)
    for v in at:
        rows[v] = tuple([x for x in rows[v] if x != w])
    rows[w] = ()
    return tuple(rows)


def isolate(g: Graph | Digraph, w: int) -> Graph | Digraph:
    """g with every edge (or arc) at w removed; vertex ids are kept.

    The unchecked one-vertex step of ``delete_vertices``: w is not
    range-checked and the (already valid) input is not revalidated,
    because the branching solver takes this step at every node.
    """
    h = type(g).__new__(type(g))
    h.n = g.n
    h._out = _drop(g._out, w, g._in[w])
    h._in = _drop(g._in, w, g._out[w]) if g.directed else h._out
    return h


def delete_vertices(g: Graph | Digraph, xs: Iterable[int]) -> Graph | Digraph:
    """g with every edge (or arc) at the vertices xs removed; vertex ids
    are kept, so g - xs has g.n vertices and xs are isolated in it."""
    for x in set(xs):
        if not (0 <= x < g.n):
            raise GraphError(f"vertex id {x} out of range")
        g = isolate(g, x)
    return g


def components(g: Graph | Digraph) -> list[tuple[int, ...]]:
    """Weak components of g, each sorted, in order of their least vertex;
    an isolated vertex is a component of its own."""
    sides = (g._out, g._in) if g.directed else (g._out,)
    seen = [False] * g.n
    out = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for u in comp:  # comp grows while it is read: a BFS
            for rows in sides:
                for w in rows[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
        out.append(tuple(sorted(comp)))
    return out


def blocks(g: Graph | Digraph) -> list[tuple[int, ...]]:
    """Blocks (biconnected components) of g's underlying undirected graph,
    each sorted: the depth-first search of Hopcroft and Tarjan with an
    explicit stack, in O(n + m).  A bridge, and so an antiparallel pair,
    is a block of its two ends; an isolated vertex lies in no block."""
    rows = [a + b for a, b in zip(g._out, g._in)] if g.directed else g._out
    disc = [-1] * g.n
    low = [0] * g.n
    out = []
    opened: list[int] = []  # visited vertices whose block is still open
    clock = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        work = [(root, iter(rows[root]))]
        while work:
            u, rest = work[-1]
            for w in rest:
                seen = disc[w]
                if seen < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    opened.append(w)
                    work.append((w, iter(rows[w])))
                    break
                if seen < low[u]:
                    low[u] = seen
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:  # p cuts u's subtree off: a block
                        block = [p]
                        while block[-1] != u:
                            block.append(opened.pop())
                        out.append(tuple(sorted(block)))
    return out


def spans(parts: Iterable[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """For each vertex v < n, the sorted union of the parts that contain
    it, or (v,) if none does; a vertex in one part gets that part itself,
    so equal spans are often one object."""
    mine: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for part in parts:
        for v in part:
            mine[v].append(part)
    return [own[0] if len(own) == 1 else tuple(sorted(set().union(*own))) if own else (v,)
            for v, own in enumerate(mine)]


def induced(g: Graph | Digraph, vs: Sequence[int]) -> Graph | Digraph:
    """The subgraph of g induced by the increasing vertex ids vs, with
    vs[i] relabelled to i.  Like ``isolate`` it maps the rows directly and
    does not revalidate them."""
    pos = {v: i for i, v in enumerate(vs)}

    def rows(source: tuple) -> tuple:
        return tuple([tuple([pos[x] for x in source[v] if x in pos]) for v in vs])

    h = type(g).__new__(type(g))
    h.n = len(vs)
    h._out = rows(g._out)
    h._in = rows(g._in) if g.directed else h._out
    return h


def parse_graph(text: str) -> Graph | Digraph:
    """Parse the line-based graph format; raises GraphFormatError."""
    kinds = {kind._tag: kind for kind in (Graph, Digraph)}
    header: tuple[type, int, int, int] | None = None  # (kind, n, m, line_no)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise GraphFormatError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] not in kinds:
                raise GraphFormatError(line_no, f"malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(line_no, f"malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise GraphFormatError(line_no, "negative count in header")
            if n > MAX_VERTICES:
                raise GraphFormatError(line_no, f"more than {MAX_VERTICES} vertices")
            header = (kinds[fields[1]], n, m, line_no)
        elif fields[0] == "e":
            if header is None:
                raise GraphFormatError(line_no, "edge before header")
            if len(fields) != 3:
                raise GraphFormatError(line_no, f"malformed edge line {line!r}")
            try:
                u1, v1 = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(line_no, f"malformed edge line {line!r}") from None
            kind, n, _, _ = header
            if not (1 <= u1 <= n and 1 <= v1 <= n):
                raise GraphFormatError(line_no, f"vertex id out of range: {line!r}")
            if u1 == v1:
                raise GraphFormatError(line_no, f"self-loop: {line!r}")
            u, v = u1 - 1, v1 - 1
            key = (u, v) if kind.directed else (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(line_no, f"duplicate {kind._pair}: {line!r}")
            seen.add(key)
            pairs.append((u, v))
        else:
            raise GraphFormatError(line_no, f"unknown line type {fields[0]!r}")
    if header is None:
        raise GraphFormatError(1, "missing header")
    kind, n, m, header_line = header
    if len(pairs) != m:
        raise GraphFormatError(
            header_line, f"header declares {m} edges but {len(pairs)} were given"
        )
    return kind(n, pairs)


def serialize_graph(g: Graph | Digraph) -> str:
    """Canonical text form: sorted edge lines, 1-based ids, LF endings."""
    pairs = g.arcs() if g.directed else g.edges()
    lines = [f"p {g._tag} {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(pairs)]
    return "\n".join(lines) + "\n"
