"""Source-level guards that keep the package's self-checks alive."""
from __future__ import annotations

import ast
import cProfile
import importlib
import pstats
from pathlib import Path

import networkx as nx

from conftest import disjoint_union, load_bench_module
from essentia.generate import gnp, planted_ess

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


def test_simplex_does_not_import_fractions():
    # The simplex works on integers over the basis determinant; Fractions
    # are made by its callers, once per result they hand out.
    tree = ast.parse((SRC / "simplex.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 alias.name.split(".")[0] == "fractions" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "fractions"]
    assert not found, f"simplex.py imports fractions at lines {found}"


def test_no_tuples_built_from_generators_in_src():
    # tuple(<generator>) allocates a tuple of the default length hint and
    # resizes it, and the freed blocks fill the tuple freelists of every
    # other length over many calls, which raises the process's peak RSS;
    # tuple([...]) allocates its final length once.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "tuple" and node.args
                  and isinstance(node.args[0], ast.GeneratorExp)]
    assert not found, f"tuple(<generator>) in src: {found}"


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


def test_no_src_module_imports_a_test_reference():
    # tests/reference_*.py keep replaced kernels as test-only references
    # for the differential tests; a src module importing one would be
    # checked against itself.
    assert any((ROOT / "tests").glob("reference_*.py"))
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}: {name}" for name in sorted(_imported_modules(tree))
                  if any(part.startswith("reference_") for part in name.split("."))]
    assert not found, f"src modules importing test references: {found}"


def test_oracle_imports_only_graphs_and_problems():
    # The converse: the oracle re-derives every class check itself, so it
    # takes from the package only the graph types and the problem table.
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = {name.split(".")[1] for name in _imported_modules(tree)
             if name.startswith("essentia.")}
    assert found <= {"graphs", "problems"}, f"oracle.py imports {sorted(found)}"


def _calls_by_caller(profile: cProfile.Profile, fn) -> dict[tuple[str, str], int]:
    """Calls of fn that profile recorded, keyed by the caller's (file
    name, function name)."""
    code = fn.__code__
    entry = pstats.Stats(profile).stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name))
    if entry is None:
        return {}
    return {(Path(file).name, name): counts[0]
            for (file, _, name), counts in entry[4].items()}


def test_traced_benchmark_names_are_called(monkeypatch):
    # The traced benchmark wraps module attributes that the library looks
    # up at call time; a call that bypasses one records no span there.
    tracing = load_bench_module("tracing", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
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
        structure = E.problems.PROBLEMS[problem].forbidden_structure
        tracer = tracing.Tracer()
        profile = cProfile.Profile()
        with tracing.installed(tracer, E):
            profile.enable()
            try:
                result = E.solve.meta_solve(problem, g)
            finally:
                profile.disable()
        names = [span[0] for span in tracer.spans()]
        wanted = solving | detecting[problem]
        assert wanted <= set(names), (problem, sorted(wanted - set(names)))
        # One solver call per attempt, and one residual per distinct
        # selected set plus the final recognizer check.
        assert names.count("solve.exact_budgeted_solve") == len(result.attempts), problem
        residuals = len({t.selected for t in result.schedule})
        assert names.count("graphs.delete_vertices") == residuals + 1, problem
        # Every structure search the solver runs goes through PROBLEMS,
        # one span per call: the tracing wrapper made each call that has
        # a span, and only recognize's own recognizers (inside in_class)
        # call the structure function any other way.
        callers = _calls_by_caller(profile, structure)
        wrapped = callers.pop(("tracing.py", "traced"), 0)
        assert wrapped == names.count("recognize.forbidden_structure") > 0, problem
        assert all(file == "recognize.py" for file, _ in callers), (problem, callers)


def _largest_component(g) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs() if g.directed else g.edges())
    return max(len(c) for c in nx.connected_components(h))


def test_detection_kernels_are_sized_by_component(monkeypatch):
    # Splitting detection into blocks and components changes no score, so
    # only the sizes of the kernels' graphs show that the split still
    # happens.  The package exports a function named detect, so fetch the
    # module.
    detect = importlib.import_module("essentia.detect")
    sizes = []

    def recording(kernel):
        def record(graph, *args):
            sizes.append(graph.n)
            return kernel(graph, *args)
        return record

    for name in ("max_T_path_packing", "max_odd_T_path_packing", "min_vertex_separator"):
        monkeypatch.setattr(detect, name, recording(getattr(detect, name)))
    centers = 4
    for problem in ("fvs", "oct", "dfvs"):
        # A center's flower is its component; every other vertex lies on
        # one triangle, a block of three, whether petal or background.
        g = planted_ess(problem, centers=centers, background=3, seed=1)
        largest = _largest_component(g)
        assert 2 * largest < g.n, problem
        sizes.clear()
        detect.detector_factory(problem, g)
        assert len(sizes) == g.n, problem  # one kernel call per vertex
        big = [size for size in sizes if size > 3]
        assert len(big) <= centers and max(big, default=0) <= largest, (problem, big)
    # doct scores on components: its kernel runs on the label-extended
    # digraph of the component, two copies per vertex.
    g = disjoint_union(*(gnp(7, 0.3, seed, directed=True) for seed in range(3)))
    largest = _largest_component(g)
    assert 2 * largest < g.n
    sizes.clear()
    detect.detector_factory("doct", g)
    assert len(sizes) == g.n and max(sizes) <= 2 * largest, (sizes, largest)
