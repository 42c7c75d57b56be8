"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads as W

E = W.import_essentia()
HERE = Path(__file__).resolve().parent


def _op(problem, g, reference):
    return W.Op("hand-made", problem, E.graphs.serialize_graph(g), g, reference)


def _triangle():
    return E.graphs.Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_gate_accepts_an_optimal_answer():
    assert W.check_answer(E.oracle, _op("fvs", _triangle(), 1), [2]) is None


def test_gate_rejects_a_wrong_size_answer():
    reason = W.check_answer(E.oracle, _op("fvs", _triangle(), 1), [0, 1])
    assert reason == "size 2 != reference optimum 1"


def test_gate_rejects_an_infeasible_answer():
    reason = W.check_answer(E.oracle, _op("fvs", _triangle(), 1), [])
    assert reason.startswith("infeasible answer")


def test_pass_counts_a_wrong_answer_as_a_failure():
    def meta_solve(problem, g):
        return SimpleNamespace(solution=SimpleNamespace(vertices=frozenset({0, 1})))

    fake = SimpleNamespace(graphs=E.graphs, oracle=E.oracle,
                           solve=SimpleNamespace(meta_solve=meta_solve))
    ops = [_op("fvs", _triangle(), 1), _op("vc", E.graphs.Graph(2, [(0, 1)]), 1)]
    times, _, failures = run.run_pass(fake, ops)
    assert len(times) == 2
    assert [f["error"] for f in failures] == [
        "size 2 != reference optimum 1",
        "size 2 != reference optimum 1",
    ]


def test_self_times_on_a_hand_built_tree():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 7.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("a", 8.0, 9.0, 0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"op": 4.0, "a": 3.0, "b": 2.0, "c": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert tracing.inclusive_time(spans, "a") == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, 0), ("x", 1.0, 4.0, 0, 0), ("y", 3.0, 6.0, 0, 0)]
    assert tracing.self_times(spans)["p"] == pytest.approx(5.0)


@pytest.mark.parametrize("n, p", [
    (10, None), (11, 9), (20, 50), (30, 66), (48, 79), (100, 90),
    (1000, 99), (10000, 99.9),
])
def test_tail_names_the_highest_percentile_with_ten_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_harrell_davis_is_a_weighted_mean_of_order_statistics():
    values = [float(v) for v in range(1, 25)]
    assert run.harrell_davis(values, 50) == pytest.approx(12.5)
    assert run.harrell_davis([3.0] * 30, 66) == pytest.approx(3.0)
    assert 19.0 < run.harrell_davis(values, 79) < 21.0


def test_tracing_restores_every_wrapped_name():
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing._targets(E)}
    problems = dict(E.problems.PROBLEMS)
    with tracing.installed(tracing.Tracer(), E):
        assert E.solve.delete_vertices is not before[("essentia.solve", "delete_vertices")]
    after = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing._targets(E)}
    assert after == before
    assert E.problems.PROBLEMS == problems


def _traced_counts(problem, g):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, E):
        tracer.op = 0
        result = E.solve.meta_solve(problem, E.graphs.parse_graph(E.graphs.serialize_graph(g)))
    return tracing.pass_metrics(tracer, [result]), result


def test_traced_counts_come_from_the_calls_and_repeat_exactly():
    g = E.generate.planted_ess("fvs", centers=2, background=1, seed=3)
    first, result = _traced_counts("fvs", g)
    second, _ = _traced_counts("fvs", g)
    assert {n: first[n] for n in tracing.EXACT} == {n: second[n] for n in tracing.EXACT}
    assert first["detect.detector_factory.calls"] == 1
    assert first["tpaths.packing.calls"] == g.n
    assert first["solve.nodes"] == result.solver_nodes
    assert first["solve.exact_budgeted_solve.calls"] == len(result.attempts)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cvd-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
