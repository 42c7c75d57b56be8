"""Workload corpora, reference optima and the per-op answer check.

Each workload is a fixed list of base instances built by the library's
own generators.  The benchmark seed shuffles the order in which the ops
run and the order of the edge lines in each instance's text, so the same
seed gives byte-identical inputs.  The seed does not relabel vertices:
CVD LP time changes by up to 7x per instance under a vertex relabelling,
and a relabelled 24-instance cvd-lp pass ranged from 10.1 s to 18.3 s
over eight seeds, which no bound below 25 % can absorb.

Reference optima never come from ``meta_solve``.  planted-ess references
hold by construction (one vertex per center and per background piece).
The others are read from ``references.json``, written once by
``record_references.py`` with ``oracle.brute_opt`` where its component
cap reaches and the direct ``exact_budgeted_solve`` elsewhere; each entry
names its source and a fingerprint of the graph it was computed on.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
MODULES = (
    "detect", "generate", "graphs", "lp", "oracle", "problems", "simplex",
    "solve", "tpaths",
)

WORKLOADS = ("branch-gnp", "planted-ess", "cvd-lp")

PLANTED_BACKGROUND = 3


class MissingSource(RuntimeError):
    """The checkout has no essentia sources next to the benchmark."""


def import_essentia(fresh: bool = False) -> SimpleNamespace:
    """Import the essentia modules from this checkout's ``src``.

    With ``fresh`` every essentia module is dropped from ``sys.modules``
    first, so the import is paid again (set-up is timed several times).
    """
    if not (SRC / "essentia" / "__init__.py").is_file():
        raise MissingSource(f"no essentia package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "essentia" or m.startswith("essentia.")]:
            del sys.modules[name]
    mods = {m: importlib.import_module(f"essentia.{m}") for m in MODULES}
    origin = Path(mods["solve"].__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSource(f"essentia was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class BaseInstance:
    """One generator call; ``key`` names it in references.json."""

    key: str
    problem: str
    generator: str  # "gnp" or "planted_ess"
    args: tuple
    kwargs: dict = field(default_factory=dict)

    def build(self, generate):
        return getattr(generate, self.generator)(*self.args, **self.kwargs)


@dataclass(frozen=True)
class Op:
    """One timed operation: parse ``text`` and solve it for ``problem``."""

    key: str
    problem: str
    text: str
    graph: object  # the generated graph, used only by the answer check
    reference: int


def base_instances(workload: str) -> list[BaseInstance]:
    if workload == "branch-gnp":
        out = []
        for p in ("vc", "fvs", "oct"):
            out += [
                BaseInstance(f"{p}/gnp-24-0.15-s{s}", p, "gnp", (24, 0.15, s))
                for s in range(6)
            ]
        for p in ("dfvs", "doct"):
            out += [
                BaseInstance(
                    f"{p}/gnp-26-0.12-di-s{s}", p, "gnp", (26, 0.12, s),
                    {"directed": True},
                )
                for s in range(6)
            ]
        return out
    if workload == "planted-ess":
        return [
            BaseInstance(
                f"{p}/planted-c{c}-b{PLANTED_BACKGROUND}-s{s}", p, "planted_ess",
                (p,), {"centers": c, "background": PLANTED_BACKGROUND, "seed": s},
            )
            for p in ("vc", "fvs", "dfvs", "oct")
            for c in (4, 6)
            for s in range(6)
        ]
    if workload == "cvd-lp":
        return [
            BaseInstance(f"cvd/gnp-{12 + s % 2}-0.3-s{s}", "cvd", "gnp", (12 + s % 2, 0.3, s))
            for s in range(24)
        ]
    raise KeyError(workload)


def fingerprint(graphs_mod, g) -> str:
    return hashlib.sha256(graphs_mod.serialize_graph(g).encode()).hexdigest()[:16]


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as f:
        return json.load(f)["instances"]


class StaleReference(RuntimeError):
    """The generator no longer builds the graph a reference was made on."""


def reference_for(inst: BaseInstance, g, graphs_mod, refs: dict) -> int:
    if inst.generator == "planted_ess":
        return inst.kwargs["centers"] + PLANTED_BACKGROUND
    entry = refs.get(inst.key)
    if entry is None:
        raise StaleReference(f"{inst.key}: no recorded reference")
    if entry["fingerprint"] != fingerprint(graphs_mod, g):
        raise StaleReference(f"{inst.key}: graph differs from the recorded one")
    return entry["opt"]


def shuffled_text(graphs_mod, g, rng: random.Random) -> str:
    """The graph's text with its edge lines in a seeded order."""
    header, *edges = graphs_mod.serialize_graph(g).splitlines()
    rng.shuffle(edges)
    return "\n".join([header, *edges]) + "\n"


def build_corpus(E, workload: str, seed: int, refs: dict) -> list[Op]:
    """The workload's ops for this seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for inst in base_instances(workload):
        g = inst.build(E.generate)
        ref = reference_for(inst, g, E.graphs, refs)
        ops.append(Op(inst.key, inst.problem, shuffled_text(E.graphs, g, rng), g, ref))
    rng.shuffle(ops)
    return ops


def check_answer(oracle, op: Op, vertices) -> str | None:
    """None when the answer is a feasible deletion set of the reference
    size, else the reason it is wrong."""
    vertices = sorted(vertices)
    if any(not (0 <= v < op.graph.n) for v in vertices):
        return f"vertex id out of range in {vertices}"
    if not oracle.feasible(op.problem, op.graph, vertices):
        return f"infeasible answer {vertices}"
    if len(vertices) != op.reference:
        return f"size {len(vertices)} != reference optimum {op.reference}"
    return None
