"""Shared corpus helpers: seeded random instances and small named graphs,
and a loader for the benchmark's own modules."""
from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from essentia.graphs import Digraph, Graph

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(stem: str, monkeypatch):
    """bench/<stem>.py, loaded read-only from its file (bench/ is not a
    package) under the name _bench_<stem>."""
    name = f"_bench_{stem}"
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def random_bipartite(rng: random.Random, a: int, b: int, p: float) -> tuple[Graph, list[int]]:
    edges = [
        (u, a + w)
        for u in range(a)
        for w in range(b)
        if rng.random() < p
    ]
    coloring = [0] * a + [1] * b
    return Graph(a + b, edges), coloring


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def disjoint_union(*parts: Graph | Digraph) -> Graph | Digraph:
    """The parts side by side, each shifted past the ones before it."""
    offset, pairs = 0, []
    for part in parts:
        pairs += [(u + offset, v + offset)
                  for u, v in (part.arcs() if part.directed else part.edges())]
        offset += part.n
    return type(parts[0])(offset, pairs)
