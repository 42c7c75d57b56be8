"""CLI end-to-end: subcommands, JSON schema, determinism, exit codes."""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import essentia.cli as cli_mod
from essentia.cli import EXIT_USAGE, _certificate_payload, main
from essentia.generate import gnp, planted_flower
from essentia.graphs import MAX_VERTICES, serialize_graph

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command", "problem", "c", "k", "input", "result",
                 "timings", "seed"],
    "properties": {
        "schema": {"const": "essentia/1"},
        "command": {"type": "string"},
        "problem": {"type": ["string", "null"]},
        "c": {"type": ["number", "null"]},
        "k": {"type": ["integer", "null"]},
        "input": {"type": ["string", "null"]},
        "result": {"type": "object"},
        "timings": {"type": "object"},
        "seed": {"type": ["integer", "null"]},
    },
}


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.gr"
    path.write_text("p ud 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    return str(path)


@pytest.fixture
def friendship_file(tmp_path):
    path = tmp_path / "fr3.gr"
    path.write_text(serialize_graph(planted_flower("fvs", 3)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_detect_oct_c5(capsys, c5_file):
    code, out, _ = run(capsys, ["detect", "--problem", "oct", "--k", "1",
                                "--input", c5_file, "--json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["selected"] == []
    assert report["c"] == 2


def test_detect_fvs_friendship(capsys, friendship_file):
    code, out, _ = run(capsys, ["detect", "--problem", "fvs", "--k", "2",
                                "--input", friendship_file, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["selected"] == [0]
    cert = report["result"]["certificates"]["0"]
    assert cert["type"] == "flower" and len(cert["petals"]) == 3


def test_detect_dfvs_petals(capsys, tmp_path):
    path = tmp_path / "dfvs3.gr"
    path.write_text(serialize_graph(planted_flower("dfvs", 3)))
    code, out, _ = run(capsys, ["detect", "--problem", "dfvs", "--k", "2",
                                "--input", str(path), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["selected"] == [0] and "assignment" not in result
    assert result["certificates"]["0"] == {
        "type": "flower", "center": 0, "petals": [[0, 1, 2], [0, 3, 4], [0, 5, 6]]}


def test_detect_doct_separator(capsys, tmp_path):
    path = tmp_path / "doct3.gr"
    path.write_text(serialize_graph(planted_flower("doct", 3)))
    code, out, _ = run(capsys, ["detect", "--problem", "doct", "--k", "1",
                                "--input", str(path), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["selected"] == [0]
    cert = result["certificates"]["0"]
    assert cert == {"type": "separator", "vertex": 0, "size": 3,
                    "separator": [[1, 1], [3, 1], [5, 1]], "paths": 3}
    assert cert["paths"] == cert["size"]


def test_detect_vc_lp_values(capsys, tmp_path):
    path = tmp_path / "star.gr"
    path.write_text("p ud 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    code, out, _ = run(capsys, ["detect", "--problem", "vc", "--k", "1",
                                "--input", str(path), "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["selected"] == [0]
    assert result["certificates"] == {"0": {"type": "lp-value", "value": "1"}}
    assert result["assignment"] == ["1", "0", "0", "0"]


def test_detect_vc_payload_keeps_its_shape_at_k_n(capsys, tmp_path):
    # At k >= n nothing is selected, but the assignment is still printed.
    path = tmp_path / "star.gr"
    path.write_text("p ud 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    results = []
    for k in ("3", "4"):
        code, out, _ = run(capsys, ["detect", "--problem", "vc", "--k", k,
                                    "--input", str(path), "--json"])
        assert code == 0
        results.append(json.loads(out)["result"])
    below, at_n = results
    assert below["selected"] == [0] and at_n["selected"] == []
    assert below.keys() == at_n.keys()
    assert below["assignment"] == at_n["assignment"] == ["1", "0", "0", "0"]


def test_certificate_payload_rejects_unknown_type():
    with pytest.raises(TypeError, match="str"):
        _certificate_payload("not a certificate")


def test_detect_cvd_dump_lp(capsys, tmp_path):
    path = tmp_path / "cvd3.gr"
    path.write_text(serialize_graph(planted_flower("cvd", 3)))
    code, out, err = run(capsys, ["detect", "--problem", "cvd", "--k", "2",
                                  "--input", str(path), "--dump-lp"])
    assert code == 0
    assert "S = [0]" in out and '"pool_size": 3' in out
    # The center's LP: one line per petal with its packing weight, whose
    # total is the cost.
    lines = err.splitlines()
    assert lines[0] == "min sum x_u  with x_0 = 0" and lines[-1] == "cost 3"
    holes = sorted(sorted(map(int, line.split()[1:5])) for line in lines[1:-1])
    assert holes == [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9]]
    assert all(line.endswith(" >= 1  y = 1") for line in lines[1:-1])


def test_detect_human_output(capsys, c5_file):
    code, out, _ = run(capsys, ["detect", "--problem", "oct", "--k", "1",
                                "--input", c5_file])
    assert code == 0
    assert "S = []" in out


def test_detect_directedness_mismatch(capsys, c5_file):
    code, _, err = run(capsys, ["detect", "--problem", "dfvs", "--k", "1",
                                "--input", c5_file])
    assert code == 3
    assert "expected directed" in err


def test_detect_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p ud 2 1\ne 1 1\n")
    code, _, err = run(capsys, ["detect", "--problem", "vc", "--k", "0",
                                "--input", str(bad)])
    assert code == 3
    assert "self-loop" in err


def test_huge_vertex_count_is_an_input_error(capsys, tmp_path):
    big = tmp_path / "big.gr"
    big.write_text("p ud 99999999999999999999 0\n")
    code, _, err = run(capsys, ["solve", "--problem", "fvs", "--input", str(big)])
    assert code == 3
    assert "more than" in err


def test_solve_oct_c5(capsys, c5_file):
    code, out, _ = run(capsys, ["solve", "--problem", "oct",
                                "--input", c5_file, "--json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["size"] == 1


def test_solve_trace(capsys, friendship_file):
    code, out, _ = run(capsys, ["solve", "--problem", "fvs",
                                "--input", friendship_file, "--trace", "--json"])
    assert code == 0
    lines = out.strip().splitlines()
    events = [json.loads(line) for line in lines[:-1]]
    assert any(e["event"] == "triple" for e in events)
    report = json.loads(lines[-1])
    assert report["result"]["solution"] == [0]
    # One attempt event per payload attempt, its fields in k, budget,
    # nodes, success order.
    attempts = [line for line in lines if '"attempt"' in line]
    assert attempts and attempts == [
        json.dumps({"event": "attempt", "k": a["k"], "budget": a["budget"],
                    "nodes": a["nodes"], "success": a["success"]})
        for a in report["result"]["attempts"]]


def test_solve_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.gr"
    path.write_text("p ud 0 0\n")
    code, out, _ = run(capsys, ["solve", "--problem", "vc",
                                "--input", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["result"]["size"] == 0


def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--problem", "oct", "--max-n", "6",
                                "--trials", "3", "--seed", "7", "--json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["result"]["failure_count"] == 0
    assert report["result"]["checked"] > 0


def test_verify_huge_c(capsys):
    # c * opt overflows to infinity; no deletion set has more than n
    # vertices, so the budget is capped at n instead of crashing.
    code, out, err = run(capsys, ["verify", "--problem", "fvs", "--c", "1e308",
                                  "--trials", "2", "--max-n", "7",
                                  "--densities", "0.6", "--json"])
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["result"]["checked"] > 0


def test_verify_zero_trials_vacuous(capsys):
    code, out, _ = run(capsys, ["verify", "--problem", "vc", "--trials", "0"])
    assert code == 0
    assert "vacuous" in out


def test_verify_all_skipped_vacuous(capsys):
    # Every instance exceeds the oracle cap, so nothing is checked.
    code, out, _ = run(capsys, ["verify", "--problem", "vc", "--max-n", "30",
                                "--cap-opt", "5", "--trials", "1", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["checked"] == 0 and result["vacuous"] is True
    code, out, _ = run(capsys, ["verify", "--problem", "vc", "--max-n", "30",
                                "--cap-opt", "5", "--trials", "1"])
    assert "vacuous" in out


def test_verify_capped_instances_check_nothing(capsys):
    # Each instance passes its k = opt - 1 check, then hits the essential
    # cap at k = opt: it is skipped, and its earlier check does not count.
    argv = ["verify", "--problem", "fvs", "--trials", "4", "--max-n", "9",
            "--cap-ess", "3", "--densities", "0.3"]
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["skipped"] == 4
    assert result["checked"] == 0 and result["vacuous"] is True
    code, out, _ = run(capsys, argv)
    assert "no instance was checked; vacuous pass" in out


def test_verify_negative_control(capsys, monkeypatch):
    # Break the detector and watch verification fail.
    def broken(task):
        out = {"skipped": False, "failures": [], "checked": 1}
        out["failures"].append({"k": 0, "reason": "G1 violated: stub", "graph": "x"})
        return out

    monkeypatch.setattr(cli_mod, "_verify_one", broken)
    code, out, _ = run(capsys, ["verify", "--problem", "vc", "--trials", "1"])
    assert code == 1
    assert "FAIL" in out


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the pool with a serial stand-in that records its size, so
    no worker process is started; returns the recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("workers, trials, pooled", [
    (64, 1, 2), (3, 2, 3), (2, 0, None), (1, 2, None),
])
def test_verify_pool_never_exceeds_tasks(capsys, monkeypatch, pool_sizes,
                                         workers, trials, pooled):
    monkeypatch.setattr("essentia.cli.os.cpu_count", lambda: 64)
    code, _, _ = run(capsys, ["verify", "--problem", "vc", "--max-n", "5",
                              "--densities", "0.3", "0.5",
                              "--trials", str(trials), "--workers", str(workers)])
    assert code == 0
    assert pool_sizes == ([] if pooled is None else [pooled])


@pytest.mark.parametrize("cpus, pooled", [(3, 3), (1, None), (None, None)])
def test_verify_pool_never_exceeds_cpus(capsys, monkeypatch, pool_sizes, cpus, pooled):
    # 1,000,000 workers asked for, 6 tasks: the CPU count caps the pool,
    # and an unknown count (None) means one process.
    monkeypatch.setattr("essentia.cli.os.cpu_count", lambda: cpus)
    code, _, _ = run(capsys, ["verify", "--problem", "vc", "--max-n", "4",
                              "--densities", "0.3", "0.5", "--trials", "3",
                              "--workers", "1000000"])
    assert code == 0
    assert pool_sizes == ([] if pooled is None else [pooled])


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.gr", tmp_path / "b.gr"
    for path in (a, b):
        code, _, _ = run(capsys, ["gen", "--model", "gnp", "--n", "6",
                                  "--p", "0.5", "--seed", "1",
                                  "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_unwritable_out_is_input_error(capsys, tmp_path):
    out = tmp_path / "missing" / "x.gr"
    code, _, err = run(capsys, ["gen", "--model", "gnp", "--n", "3",
                                "--out", str(out)])
    assert code == 3
    assert f"cannot write {out}" in err and "Traceback" not in err


def test_gen_planted_flower_is_friendship(capsys):
    code, out, _ = run(capsys, ["gen", "--model", "planted-flower",
                                "--problem", "fvs", "--q", "3"])
    assert code == 0
    assert out == serialize_graph(planted_flower("fvs", 3))


def test_gen_planted_ess_rejects_cvd(capsys):
    code, _, err = run(capsys, ["gen", "--model", "planted-ess",
                                "--problem", "cvd"])
    assert code == 3
    assert "oracle scale" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--problem", "nope", "--k", "1", "--input", "x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["detect", "--problem", "cvd", "--k", "-1"],
    ["gen", "--model", "planted-flower", "--problem", "fvs", "--q", "-1"],
    ["gen", "--model", "gnp", "--n", "-3"],
    ["gen", "--model", "gnp", "--p", "1.5"],
    ["gen", "--model", "planted-ess", "--problem", "fvs", "--petals", "-1"],
    ["gen", "--model", "planted-ess", "--problem", "fvs", "--centers", "0"],
    ["gen", "--model", "planted-ess", "--problem", "fvs", "--centers", "-2"],
    ["gen", "--model", "planted-ess", "--problem", "fvs", "--background", "-1"],
    ["verify", "--problem", "fvs", "--c", "0.5"],
    ["verify", "--problem", "fvs", "--c", "inf"],
    ["verify", "--problem", "fvs", "--workers", "0"],
    ["verify", "--problem", "fvs", "--workers", "-2"],
    ["verify", "--problem", "fvs", "--trials", "-1"],
    ["verify", "--problem", "fvs", "--cap-opt", "-1"],
    ["verify", "--problem", "fvs", "--cap-ess", "-1"],
    ["bench", "--problem", "fvs", "--suite", "x", "--timeout", "-1"],
    ["bench", "--problem", "fvs", "--suite", "x", "--timeout", "0"],
    ["bench", "--problem", "fvs", "--suite", "x", "--timeout", "1e300"],
    ["verify", "--problem", "fvs", "--trials", "many"],
    ["gen", "--model", "gnp", "--n", "3.5"],
])
def test_negative_parameter_is_usage_error(capsys, c5_file, argv):
    if argv[0] == "detect":
        argv = argv + ["--input", c5_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be" in err
    if argv[-1] == "3.5":
        assert "integer" in err


def test_bench(capsys, tmp_path, c5_file, friendship_file):
    suite = tmp_path / "suite.txt"
    suite.write_text("# two instances\nc5.gr\nfr3.gr\n")
    code, out, _ = run(capsys, ["bench", "--problem", "fvs",
                                "--suite", str(suite), "--json"])
    assert code == 0
    report = json.loads(out)
    rows = report["result"]["rows"]
    assert len(rows) == 2
    assert all(not r["timeout"] for r in rows)
    assert rows[1]["opt"] == 1


def test_bench_tiny_timeout(capsys, tmp_path):
    # An alarm that fires before the solve starts is a timed-out row, not
    # a traceback, and the caller's SIGALRM handler comes back.
    (tmp_path / "g.gr").write_text(serialize_graph(gnp(30, 0.15, 1)))
    suite = tmp_path / "suite.txt"
    suite.write_text("g.gr\ng.gr\n")
    before = signal.getsignal(signal.SIGALRM)
    code, out, _ = run(capsys, ["bench", "--problem", "fvs", "--suite", str(suite),
                                "--timeout", "1e-6", "--json"])
    assert code == 0
    report = json.loads(out)
    rows = report["result"]["rows"]
    assert len(rows) == 2 and all(r["timeout"] for r in rows)
    assert signal.getsignal(signal.SIGALRM) is before
    # A timed-out solve still took time, and the total counts it.
    assert all("meta_ms" in r for r in rows)
    assert report["timings"]["total_ms"] == pytest.approx(
        sum(r["meta_ms"] + r.get("direct_ms", 0) for r in rows))


def test_bench_mismatch_rejected(capsys, tmp_path, c5_file):
    suite = tmp_path / "suite.txt"
    suite.write_text("c5.gr\n")
    code, _, err = run(capsys, ["bench", "--problem", "dfvs",
                                "--suite", str(suite)])
    assert code == 3
    assert "expected directed" in err


@pytest.mark.parametrize("last,message", [
    ("missing.gr", "cannot read"),
    ("bad.gr", "self-loop"),
    ("c5.gr", "expected directed"),
])
def test_bench_checks_every_entry_before_timing(capsys, tmp_path, monkeypatch,
                                                last, message):
    (tmp_path / "g2.gr").write_text(serialize_graph(gnp(8, 0.3, 2, directed=True)))
    (tmp_path / "bad.gr").write_text("p di 2 1\ne 1 1\n")
    (tmp_path / "c5.gr").write_text("p ud 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    suite = tmp_path / "suite.txt"
    suite.write_text(f"g2.gr\n{last}\n")
    calls = []
    monkeypatch.setattr(cli_mod, "meta_solve", lambda *a: calls.append(a))
    code, out, err = run(capsys, ["bench", "--problem", "dfvs", "--suite", str(suite)])
    assert code == 3 and message in err
    assert calls == [] and out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--model", "gnp", "--p", "0", "--n"],
    ["verify", "--problem", "vc", "--trials", "1", "--max-n"],
])
def test_vertex_count_above_the_parse_limit_is_usage_error(argv):
    # In a child process with a timeout: without the cap, gen draws
    # n(n - 1)/2 random numbers and would not return.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-m", "essentia", *argv, str(MAX_VERTICES + 1)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert f"must be an integer in [0, {MAX_VERTICES}]" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["planted-flower", "--problem", "fvs", "--q", "100000000"],
    ["planted-flower", "--problem", "vc", "--q", str(MAX_VERTICES)],
    # Each option below is small alone; the vertices they imply are not.
    ["planted-ess", "--problem", "fvs", "--centers", "1000", "--background", "0"],
    ["planted-ess", "--problem", "vc", "--centers", "1", "--petals", "0",
     "--background", str(MAX_VERTICES // 2)],
    ["planted-ess", "--problem", "oct", "--centers", "1", "--petals", str(MAX_VERTICES // 2)],
])
def test_planted_models_above_the_parse_limit_are_usage_errors(argv):
    # In a child process with a timeout: without the cap, gen builds the
    # graph and can end in a MemoryError.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-m", "essentia", "gen", "--model", *argv],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert f"vertices, more than {MAX_VERTICES}" in proc.stderr
    assert proc.stdout == ""


def test_planted_flower_at_the_parse_limit_is_built(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli_mod.generate, "planted_flower",
                        lambda problem, q: built.append(q) or planted_flower(problem, 1))
    code, out, _ = run(capsys, ["gen", "--model", "planted-flower", "--problem", "vc",
                                "--q", str(MAX_VERTICES - 1)])
    assert code == 0 and out.startswith("p ud 2 1")
    assert built == [MAX_VERTICES - 1]


def test_python_dash_m_runs_the_cli():
    # From a checkout, as the tests import it: PYTHONPATH=src.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-m", "essentia", "--help"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "detect" in proc.stdout
