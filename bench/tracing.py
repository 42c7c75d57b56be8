"""Spans around the calls one essentia module makes into the next.

Only the traced run installs the wrappers, and only from here: every
wrapped name is a module attribute (or a ``PROBLEMS`` entry) that the
library looks up at call time, so replacing it routes the call through a
span without touching ``src/``.  ``installed`` restores every name.

A span is (name, start, end, parent span, op id).  A layer's self time
is its spans' durations minus the part of each covered by child spans.
Counts other than ``*.calls`` come from the public arguments and return
values, so they repeat exactly between runs of one commit.
"""
from __future__ import annotations

import dataclasses
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (name, unit, better); the per_layer list of BENCHMARK.json.
PER_LAYER = [
    ("graphs.parse_graph.calls", "count", "lower"),
    ("graphs.parse_graph.self_s", "s", "lower"),
    ("graphs.delete_vertices.calls", "count", "lower"),
    ("graphs.delete_vertices.self_s", "s", "lower"),
    ("recognize.forbidden_structure.calls", "count", "lower"),
    ("recognize.forbidden_structure.self_s", "s", "lower"),
    ("recognize.in_class.calls", "count", "lower"),
    ("recognize.in_class.self_s", "s", "lower"),
    ("solve.meta_solve.self_s", "s", "lower"),
    ("solve.exact_budgeted_solve.calls", "count", "lower"),
    ("solve.exact_budgeted_solve.self_s", "s", "lower"),
    ("solve.nodes", "count", "lower"),
    ("solve.max_budget", "count", "lower"),
    ("solve.wasted_nodes_ratio", "ratio", "lower"),
    ("solve.distinct_residuals_ratio", "ratio", "lower"),
    ("detect.detector_factory.calls", "count", "lower"),
    ("detect.detector_factory.self_s", "s", "lower"),
    ("detect.selected_share", "ratio", "higher"),
    ("tpaths.packing.calls", "count", "lower"),
    ("tpaths.packing.self_s", "s", "lower"),
    ("tpaths.aux_vertices", "count", "lower"),
    ("matching.max_matching_adj.calls", "count", "lower"),
    ("matching.max_matching_adj.self_s", "s", "lower"),
    ("matching.min_vertex_cover_bipartite.calls", "count", "lower"),
    ("matching.min_vertex_cover_bipartite.self_s", "s", "lower"),
    ("flows.min_vertex_separator.calls", "count", "lower"),
    ("flows.min_vertex_separator.self_s", "s", "lower"),
    ("flows.paths", "count", "lower"),
    ("lp.solve_v_avoiding_lp.calls", "count", "lower"),
    ("lp.solve_v_avoiding_lp.self_s", "s", "lower"),
    ("lp.separation_oracle.calls", "count", "lower"),
    ("lp.separation_oracle.self_s", "s", "lower"),
    ("lp.pool_size", "count", "lower"),
    ("lp.oracle_hit_ratio", "ratio", "higher"),
    ("simplex.simplex_min.calls", "count", "lower"),
    ("simplex.simplex_min.self_s", "s", "lower"),
    ("simplex.tableau_cells", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# Metrics that must repeat exactly between traced passes of one corpus.
EXACT = [n for n in UNITS if not n.endswith(".self_s") and n != "trace.overhead_ratio"]
SPAN_NAMES = sorted({n[: -len(".calls")] for n in UNITS if n.endswith(".calls")}
                    | {"solve.meta_solve"})


class Tracer:
    """In-memory span store for one pass; ``op`` is set by the caller."""

    def __init__(self):
        self.names = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.ops = array("l")
        self.op = -1
        self.counts = Counter()
        self.last_pool: dict[int, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        code = SPAN_NAMES.index(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def spans(self):
        """(name, start, end, parent, op) tuples in recording order."""
        for i in range(len(self.names)):
            yield (SPAN_NAMES[self.names[i]], self.start[i], self.end[i],
                   self.parent[i], self.ops[i])


def _aux(tr: Tracer, args, result) -> None:
    # Both packers' auxiliary graphs hold each terminal once and each
    # non-terminal twice.  detect passes the terminals as a set.
    g, terminals = args[0], args[1]
    nonterm = sum(1 for v in range(g.n) if v not in terminals)
    tr.counts["tpaths.aux_vertices"] += (g.n - nonterm) + 2 * nonterm


def _paths(tr: Tracer, args, result) -> None:
    tr.counts["flows.paths"] += len(result.paths)


def _pool(tr: Tracer, args, result) -> None:
    # The detector carries the pool forward, so an op's last pool holds
    # every hole it generated.
    tr.last_pool[tr.op] = len(result.pool)


def _oracle_hit(tr: Tracer, args, result) -> None:
    tr.counts["lp.oracle_hits"] += result is not None


def _cells(tr: Tracer, args, result) -> None:
    costs, rows = args[0], args[1]
    tr.counts["simplex.tableau_cells"] += len(rows) * len(costs)


def _targets(E):
    """(module, attribute, span name, counter) for every wrapped name."""
    return [
        (E.graphs, "parse_graph", "graphs.parse_graph", None),
        (E.solve, "meta_solve", "solve.meta_solve", None),
        (E.solve, "detector_factory", "detect.detector_factory", None),
        (E.solve, "exact_budgeted_solve", "solve.exact_budgeted_solve", None),
        (E.solve, "delete_vertices", "graphs.delete_vertices", None),
        (E.detect, "max_T_path_packing", "tpaths.packing", _aux),
        (E.detect, "max_odd_T_path_packing", "tpaths.packing", _aux),
        (E.detect, "min_vertex_separator", "flows.min_vertex_separator", _paths),
        (E.detect, "solve_v_avoiding_lp", "lp.solve_v_avoiding_lp", _pool),
        (E.detect, "min_vertex_cover_bipartite", "matching.min_vertex_cover_bipartite", None),
        (E.tpaths, "max_matching_adj", "matching.max_matching_adj", None),
        (E.lp, "separation_oracle_holes", "lp.separation_oracle", _oracle_hit),
        (E.lp, "simplex_min", "simplex.simplex_min", _cells),
    ]


@contextmanager
def installed(tracer: Tracer, E):
    """Route every cross-module call through ``tracer`` while open."""
    saved = []
    problems = E.problems.PROBLEMS
    saved_problems = dict(problems)
    try:
        for module, attr, name, count in _targets(E):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        for pid, prob in saved_problems.items():
            problems[pid] = dataclasses.replace(
                prob,
                in_class=tracer.wrap("recognize.in_class", prob.in_class),
                forbidden_structure=tracer.wrap(
                    "recognize.forbidden_structure", prob.forbidden_structure),
            )
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        problems.update(saved_problems)


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name over (name, start, end, parent, op)
    tuples whose parent is an index into the same sequence."""
    spans = list(spans)
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - _covered(start, end, children[i])
    return dict(out)


def inclusive_time(spans, name: str) -> float:
    """Summed duration of the outermost spans called ``name``."""
    spans = list(spans)
    total = 0.0
    for sname, start, end, parent, _ in spans:
        if sname != name:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, results) -> dict[str, float]:
    """Every per-layer metric but the overhead ratio, for one traced pass;
    ``results`` holds the pass's MetaResult objects (None for a failed op)."""
    spans = list(tracer.spans())
    calls = Counter(s[0] for s in spans)
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in UNITS:
        if name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0)
    done = [r for r in results if r is not None]
    nodes = sum(a.nodes for r in done for a in r.attempts)
    wasted = sum(a.nodes for r in done for a in r.attempts if not a.success)
    attempts = sum(len(r.attempts) for r in done)
    distinct = selected_opt = 0
    for r in done:
        selected = {t.k: t.selected for t in r.schedule}
        distinct += len({selected[a.k] for a in r.attempts})
        # meta_solve stops at its first successful attempt.
        selected_opt += len(selected[r.attempts[-1].k])
    opt = sum(len(r.solution.vertices) for r in done)
    out["solve.nodes"] = nodes
    out["solve.max_budget"] = max((r.max_budget_attempted for r in done), default=0)
    out["solve.wasted_nodes_ratio"] = _ratio(wasted, nodes)
    out["solve.distinct_residuals_ratio"] = _ratio(distinct, attempts)
    out["detect.selected_share"] = _ratio(selected_opt, opt)
    out["tpaths.aux_vertices"] = tracer.counts["tpaths.aux_vertices"]
    out["flows.paths"] = tracer.counts["flows.paths"]
    out["lp.pool_size"] = sum(tracer.last_pool.values())
    out["lp.oracle_hit_ratio"] = _ratio(
        tracer.counts["lp.oracle_hits"], calls["lp.separation_oracle"])
    out["simplex.tableau_cells"] = tracer.counts["simplex.tableau_cells"]
    return out
