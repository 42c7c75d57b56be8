"""Source-level guards that keep the package's self-checks alive."""
from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "essentia"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; self-checks raise explicitly.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_tests_do_not_call_builtin_hash():
    # str hashes are salted per process, so a seed derived with hash()
    # gives a different test input on every run.
    found = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "hash"]
    assert not found, f"hash() calls in tests: {found}"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names a module of the package imports, relative ones
    resolved against ``essentia``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "essentia" if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_cli_and_init_import_the_oracle():
    # The brute-force oracle checks the solver, so no solving path may
    # share code with it.
    allowed = {"cli.py", "__init__.py"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "essentia.oracle" in _imported_modules(tree):
            found.append(path.name)
    assert set(found) <= allowed, f"modules importing the oracle: {found}"


def _load(path: Path, monkeypatch):
    name = f"_bench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_names_are_called(monkeypatch):
    # The traced benchmark wraps module attributes that the library looks
    # up at call time; a call that bypasses one records no span there.
    tracing = _load(ROOT / "bench" / "tracing.py", monkeypatch)
    workloads = _load(ROOT / "bench" / "workloads.py", monkeypatch)
    E = workloads.import_essentia()
    graphs = {
        "vc": E.generate.gnp(8, 0.4, 1),
        "fvs": E.generate.gnp(8, 0.4, 1),
        "oct": E.generate.gnp(8, 0.4, 1),
        "cvd": E.generate.gnp(7, 0.4, 1),
        "dfvs": E.generate.gnp(8, 0.3, 1, directed=True),
        "doct": E.generate.gnp(8, 0.3, 1, directed=True),
    }
    solving = {"solve.exact_budgeted_solve", "recognize.forbidden_structure",
               "graphs.delete_vertices"}
    # The detection kernels each problem's detector reaches; a kernel
    # bound to a local name (say, max_matching_adj inside the T-path
    # packers) would silently lose its spans.
    packing = {"tpaths.packing", "matching.max_matching_adj"}
    separator = {"flows.min_vertex_separator"}
    detecting = {
        "vc": {"matching.min_vertex_cover_bipartite"},
        "fvs": packing,
        "oct": packing,
        "dfvs": separator,
        "doct": separator,
        "cvd": {"lp.solve_v_avoiding_lp", "lp.separation_oracle", "simplex.simplex_min"},
    }
    for problem, g in graphs.items():
        tracer = tracing.Tracer()
        with tracing.installed(tracer, E):
            result = E.solve.meta_solve(problem, g)
        names = [span[0] for span in tracer.spans()]
        wanted = solving | detecting[problem]
        assert wanted <= set(names), (problem, sorted(wanted - set(names)))
        # Every branching node looks up a structure through PROBLEMS.
        assert names.count("recognize.forbidden_structure") >= result.solver_nodes
