"""CLI end-to-end: subcommands, JSON schema, determinism, exit codes."""
from __future__ import annotations

import json

import jsonschema
import pytest

from essentia.cli import EXIT_USAGE, main
from essentia.generate import planted_flower
from essentia.graphs import serialize_graph

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
    assert any(e["event"] == "attempt" for e in events)
    report = json.loads(lines[-1])
    assert report["result"]["solution"] == [0]


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


def test_verify_negative_control(capsys, monkeypatch):
    # Break the detector and watch verification fail.
    import essentia.cli as cli_mod

    def broken(task):
        out = {"skipped": False, "failures": [], "checked": 1}
        out["failures"].append({"k": 0, "reason": "G1 violated: stub", "graph": "x"})
        return out

    monkeypatch.setattr(cli_mod, "_verify_one", broken)
    code, out, _ = run(capsys, ["verify", "--problem", "vc", "--trials", "1"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("workers, trials, pooled", [
    (64, 1, 2), (3, 2, 3), (2, 0, None), (1, 2, None),
])
def test_verify_pool_never_exceeds_tasks(capsys, monkeypatch, workers, trials, pooled):
    # The pool is replaced by a serial stand-in that records its size, so
    # no worker process is started.
    import essentia.cli as cli_mod

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
    code, _, _ = run(capsys, ["verify", "--problem", "vc", "--max-n", "5",
                              "--densities", "0.3", "0.5",
                              "--trials", str(trials), "--workers", str(workers)])
    assert code == 0
    assert sizes == ([] if pooled is None else [pooled])


def test_gen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.gr", tmp_path / "b.gr"
    for path in (a, b):
        code, _, _ = run(capsys, ["gen", "--model", "gnp", "--n", "6",
                                  "--p", "0.5", "--seed", "1",
                                  "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


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
])
def test_negative_parameter_is_usage_error(capsys, c5_file, argv):
    if argv[0] == "detect":
        argv = argv + ["--input", c5_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "must be" in capsys.readouterr().err


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


def test_bench_mismatch_rejected(capsys, tmp_path, c5_file):
    suite = tmp_path / "suite.txt"
    suite.write_text("c5.gr\n")
    code, _, err = run(capsys, ["bench", "--problem", "dfvs",
                                "--suite", str(suite)])
    assert code == 3
    assert "expected directed" in err
