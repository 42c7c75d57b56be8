"""Simple immutable graph and digraph types shared by every algorithm.

Vertices are dense 0-based integers.  Deleting vertices keeps every
id: the deleted vertices stay behind isolated, so a set found on the
residual graph needs no translation back, and every untouched adjacency
row is shared with the input.

The on-disk format is line based:

    p ud <n> <m>      undirected header   (``p di <n> <m>`` for directed)
    e <u> <v>         one line per edge, 1-based vertex ids
    c ...             comment, ignored

Self-loops, duplicate edges and out-of-range ids are rejected with the
offending line number.
"""
from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    pass


class GraphFormatError(GraphError):
    """Parse failure; carries the 1-based line number of the offence."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "_adj", "_sets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self._check_pair(u, v)
            if v in sets[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            sets[u].add(v)
            sets[v].add(u)
        self._sets = tuple(frozenset(s) for s in sets)
        self._adj = tuple(tuple(sorted(s)) for s in sets)

    def _check_pair(self, u: int, v: int) -> None:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex id out of range in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._sets[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Directed simple graph: no self-loops, no parallel arcs.

    Antiparallel pairs (u, v) and (v, u) are legal; a 2-cycle is an even
    directed cycle and deliberately part of the instance space.
    """

    __slots__ = ("n", "_out", "_in", "_out_sets")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        out: list[set[int]] = [set() for _ in range(n)]
        inc: list[set[int]] = [set() for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex id out of range in arc ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in out[u]:
                raise GraphError(f"duplicate arc ({u}, {v})")
            out[u].add(v)
            inc[v].add(u)
        self._out_sets = tuple(frozenset(s) for s in out)
        self._out = tuple(tuple(sorted(s)) for s in out)
        self._in = tuple(tuple(sorted(s)) for s in inc)

    def successors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def predecessors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._out_sets[u]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._out[u]:
                yield (u, v)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Digraph) and self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


def _drop(rows: tuple, w: int, at: tuple[int, ...]) -> tuple:
    """rows with w taken out of the rows in at and row w emptied; every
    other row (a tuple or a frozenset) is shared with the input."""
    rows = list(rows)
    for v in at:
        rows[v] = type(rows[v])(x for x in rows[v] if x != w)
    rows[w] = type(rows[w])()
    return tuple(rows)


def isolate(g: Graph | Digraph, w: int) -> Graph | Digraph:
    """g with every edge (or arc) at w removed; vertex ids are kept.

    The unchecked one-vertex step of ``delete_vertices``: w is not
    range-checked and the (already valid) input is not revalidated,
    because the branching solver takes this step at every node.
    """
    if isinstance(g, Graph):
        h = Graph.__new__(Graph)
        h.n = g.n
        h._adj = _drop(g._adj, w, g._adj[w])
        h._sets = _drop(g._sets, w, g._adj[w])
        return h
    h = Digraph.__new__(Digraph)
    h.n = g.n
    h._out = _drop(g._out, w, g._in[w])
    h._out_sets = _drop(g._out_sets, w, g._in[w])
    h._in = _drop(g._in, w, g._out[w])
    return h


def delete_vertices(g: Graph | Digraph, xs: Iterable[int]) -> Graph | Digraph:
    """g with every edge (or arc) at the vertices xs removed; vertex ids
    are kept, so g - xs has g.n vertices and xs are isolated in it."""
    for x in set(xs):
        if not (0 <= x < g.n):
            raise GraphError(f"vertex id {x} out of range")
        g = isolate(g, x)
    return g


def parse_graph(text: str) -> Graph | Digraph:
    """Parse the line-based graph format; raises GraphFormatError."""
    header: tuple[bool, int, int] | None = None  # (directed, n, m)
    pairs: list[tuple[int, int]] = []
    seen_undirected: set[tuple[int, int]] = set()
    seen_directed: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise GraphFormatError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] not in ("ud", "di"):
                raise GraphFormatError(line_no, f"malformed header {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(line_no, f"malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise GraphFormatError(line_no, "negative count in header")
            header = (fields[1] == "di", n, m)
        elif fields[0] == "e":
            if header is None:
                raise GraphFormatError(line_no, "edge before header")
            if len(fields) != 3:
                raise GraphFormatError(line_no, f"malformed edge line {line!r}")
            try:
                u1, v1 = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(line_no, f"malformed edge line {line!r}") from None
            directed, n, _ = header
            if not (1 <= u1 <= n and 1 <= v1 <= n):
                raise GraphFormatError(line_no, f"vertex id out of range: {line!r}")
            if u1 == v1:
                raise GraphFormatError(line_no, f"self-loop: {line!r}")
            u, v = u1 - 1, v1 - 1
            if directed:
                if (u, v) in seen_directed:
                    raise GraphFormatError(line_no, f"duplicate arc: {line!r}")
                seen_directed.add((u, v))
            else:
                key = (min(u, v), max(u, v))
                if key in seen_undirected:
                    raise GraphFormatError(line_no, f"duplicate edge: {line!r}")
                seen_undirected.add(key)
            pairs.append((u, v))
        else:
            raise GraphFormatError(line_no, f"unknown line type {fields[0]!r}")
    if header is None:
        raise GraphFormatError(1, "missing header")
    directed, n, m = header
    if len(pairs) != m:
        raise GraphFormatError(
            1, f"header declares {m} edges but {len(pairs)} were given"
        )
    return Digraph(n, pairs) if directed else Graph(n, pairs)


def serialize_graph(g: Graph | Digraph) -> str:
    """Canonical text form: sorted edge lines, 1-based ids, LF endings."""
    lines = []
    if isinstance(g, Graph):
        lines.append(f"p ud {g.n} {g.m}")
        for u, v in sorted(g.edges()):
            lines.append(f"e {u + 1} {v + 1}")
    else:
        lines.append(f"p di {g.n} {g.m}")
        for u, v in sorted(g.arcs()):
            lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
