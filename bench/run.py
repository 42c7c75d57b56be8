"""Seeded end-to-end benchmark of essentia's detection-driven solver.

    python3 bench/run.py --workload branch-gnp --seed 1 --seconds 30 --trace 0

One op parses one instance's text with ``graphs.parse_graph``, as
``essentia solve --input`` does, and runs ``solve.meta_solve`` on it.
Ops run back to back in this one process and thread (a closed loop with
one client).  A pass runs every op of the workload once; whole passes
repeat until ``--seconds`` is spent, and at least three times.  Each answer is
checked after its timer stops: it must pass ``oracle.feasible`` and have
the size of the workload's reference optimum (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (at least two of each) and prints the per-layer metrics, taken from
spans recorded around the calls between modules (see ``tracing.py``).
Human-readable lines come first; the last line of standard output is one
JSON object.  A fuller record, with machine information, goes to
``.bench_out/`` in the working directory.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads as W

SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # enough to compare counts between traced passes
OP_LIMIT_S = 30.0
RUN_LIMIT_S = 150.0  # no pass starts that would end after this
OUT_DIR = Path(".bench_out")
PROBLEM_ORDER = ("vc", "fvs", "dfvs", "oct", "doct", "cvd")
END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
# The share of traced op time each workload exists to put in one place.
PURPOSE = {
    "branch-gnp": ("detect.detector_factory", "below", 0.05),
    "planted-ess": ("detect.detector_factory", "above", 0.70),
    "cvd-lp": ("lp.solve_v_avoiding_lp", "above", 0.90),
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S:g} s")


def tail_percentile(n: int) -> float | None:
    """Highest percentile p, from 1..99 then 99.9 and 99.99, such that at
    least ten of n samples lie beyond its nearest rank ceil(p n / 100)."""
    best = None
    for p in [*range(1, 100), Fraction(999, 10), Fraction(9999, 100)]:
        if n - math.ceil(Fraction(p) * n / 100) >= 10:
            best = p
    return None if best is None else float(best)


def harrell_davis(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: the order statistics
    averaged with Beta(q(n+1), (1-q)(n+1)) weights, q = p/100.

    One order statistic carries the full noise of one op time (two passes
    of one instance differ by 12-30 % on a shared 2-vCPU Xeon); averaging
    its neighbours cut the spread of op_s.p50 and op_s.tail over fifteen
    two-pass cvd-lp runs from 0.15 and 0.18 to 0.11 and 0.10.
    """
    n = len(sorted_values)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 32  # midpoint-rule steps per order statistic
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / (n * steps) for k in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def setup(workload: str, seed: int):
    """Import, corpus generation, reference loading and warm-up; a
    warm-up op that fails fails again, and is counted, in the passes."""
    t0 = perf_counter()
    E = W.import_essentia(fresh=True)
    ops = W.build_corpus(E, workload, seed, W.load_references())
    smallest = {}
    for op in ops:
        if op.problem not in smallest or len(op.text) < len(smallest[op.problem].text):
            smallest[op.problem] = op
    for op in smallest.values():
        run_op(E, op)
    return E, ops, perf_counter() - t0


def run_op(E, op: W.Op):
    """(seconds, MetaResult or None, error or None); the answer check
    runs after the timer stops."""
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    t0 = perf_counter()
    try:
        g = E.graphs.parse_graph(op.text)
        result = E.solve.meta_solve(op.problem, g)
    except Exception as exc:  # every failure is counted, none ends the run
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        error = W.check_answer(E.oracle, op, result.solution.vertices)
        if error is not None:
            result = None
    return elapsed, result, error


def run_pass(E, ops, tracer=None):
    """Op times, failures and, in a traced pass only, the MetaResults
    (None for a failed op); untraced passes keep no results, so memory
    does not grow with the number of passes."""
    times, results, failures = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        elapsed, result, error = run_op(E, op)
        times.append(elapsed)
        if tracer is not None:
            results.append(result)
        if error:
            failures.append({"instance": op.key, "problem": op.problem, "error": error})
    return times, results, failures


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((W.SRC / "essentia").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(ops, passes, setup_times):
    """End-to-end metrics plus the report-only figures (problem_s.*)."""
    per_op = [statistics.median(p[i] for p in passes) for i in range(len(ops))]
    per_op.sort()
    p_tail = tail_percentile(len(per_op))
    total_ops = sum(len(p) for p in passes)
    total_s = sum(sum(p) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": harrell_davis(per_op, 50),
        "op_s.tail": harrell_davis(per_op, p_tail if p_tail is not None else 50),
        "ops_per_s": total_ops / total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    problems = {}
    for pid in PROBLEM_ORDER:
        idx = [i for i, op in enumerate(ops) if op.problem == pid]
        if idx:
            problems[f"problem_s.{pid}"] = statistics.median(
                sum(p[i] for i in idx) for p in passes)
    notes = {
        "op_s.tail": (f"p{p_tail:g} of {len(per_op)} per-instance medians, Harrell-Davis"
                      if p_tail is not None else
                      f"p50: {len(per_op)} instances leave no percentile ten samples"),
        "op_s.p50": f"p50 of {len(per_op)} per-instance medians, Harrell-Davis",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{total_ops} ops in {total_s:.3f} s of timed passes",
    }
    return metrics, problems, notes


def per_layer(workload, pass_pairs, stored):
    """Per-layer metrics from (untraced, traced) pass pairs; returns the
    metrics, the check lines and the count mismatches."""
    traced = [m for _, _, m in pass_pairs]
    metrics = {}
    for name in tracing.UNITS:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(m[name] for m in traced)
        elif name != "trace.overhead_ratio":
            metrics[name] = traced[0][name]
    untraced_s = statistics.median(u for u, _, _ in pass_pairs)
    traced_s = statistics.median(t for _, t, _ in pass_pairs)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    mismatches = []
    for i, m in enumerate(traced[1:], start=2):
        mismatches += [f"{n}: traced pass 1 gave {traced[0][n]}, pass {i} gave {m[n]}"
                       for n in tracing.EXACT if m[n] != traced[0][n]]
    if stored is not None:
        mismatches += [f"{n}: an earlier run gave {stored.get(n)}, this run {metrics[n]}"
                       for n in tracing.EXACT if stored.get(n) != metrics[n]]
    span_name, side, bound = PURPOSE[workload]
    share = statistics.median(m["share"] for m in traced)
    met = share < bound if side == "below" else share > bound
    self_sum = statistics.median(m["self_sum"] for m in traced)
    lines = [
        f"check: {span_name} takes {share:.1%} of traced op time, "
        f"{side} {bound:.0%}: {'met' if met else 'MISSED'}",
        f"check: self times sum to {self_sum:.4f} s of {traced_s:.4f} s traced op time, "
        f"which is {metrics['trace.overhead_ratio']:.3f} x the untraced {untraced_s:.4f} s",
    ]
    return metrics, lines, mismatches


def write_spans(path: Path, tracers) -> None:
    """One line per span; start and end in ns from the pass's first span."""
    with gzip.open(path, "wt", compresslevel=1) as f:
        f.write("pass\top\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for k, tracer in enumerate(tracers, start=1):
            t0 = tracer.start[0] if tracer.start else 0.0
            for i, (name, start, end, parent, op) in enumerate(tracer.spans()):
                f.write(f"{k}\t{op}\t{i}\t{parent}\t{name}\t"
                        f"{round((start - t0) * 1e9)}\t{round((end - t0) * 1e9)}\n")


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<44} {value:>14.6f} {unit:<6} {note}".rstrip()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            E, ops, seconds_taken = setup(workload, seed)
            setup_times.append(seconds_taken)
    except (W.MissingSource, W.StaleReference, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), **machine_info()}
    print(f"# essentia benchmark: workload {workload}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print(f"# python {info['python']}, nproc {info['nproc']}, cpu {info['cpu']}")
    print(f"# closed loop, 1 client, {len(ops)} ops per pass")

    failures, attempted = [], 0
    passes, pass_pairs, tracers = [], [], []
    t_start = perf_counter()
    while True:
        times, _, fails = run_pass(E, ops)
        attempted += len(times)
        failures += fails
        passes.append(times)
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer, E):
                t_times, t_results, t_fails = run_pass(E, ops, tracer)
            attempted += len(t_times)
            failures += t_fails
            m = tracing.pass_metrics(tracer, t_results)
            m["share"] = tracing.inclusive_time(
                tracer.spans(), PURPOSE[workload][0]) / sum(t_times)
            m["self_sum"] = sum(v for n, v in m.items() if n.endswith(".self_s"))
            pass_pairs.append((sum(times), sum(t_times), m))
            tracers.append(tracer)
        done = len(passes)
        next_end = (perf_counter() - t_start) * (done + 1) / done
        enough = done >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if next_end > RUN_LIMIT_S or (enough and next_end > seconds):
            break

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {**info, "passes": len(passes), "attempted": attempted,
              "failed": len(failures), "failures": failures,
              "op_s": {op.key: [p[i] for p in passes] for i, op in enumerate(ops)}}
    if trace:
        counts_path = OUT_DIR / f"counts-{workload}-seed{seed}.json"
        digest = source_digest()
        stored = None
        if counts_path.exists():
            previous = json.loads(counts_path.read_text())
            if previous.get("source") == digest:
                stored = previous["counts"]
        metrics, lines, mismatches = per_layer(workload, pass_pairs, stored)
        counts_path.write_text(json.dumps(
            {"source": digest, "counts": {n: metrics[n] for n in tracing.EXACT}}))
        write_spans(OUT_DIR / f"spans-{stem}.tsv.gz", tracers)
        record["pass_s"] = [{"untraced": u, "traced": t} for u, t, _ in pass_pairs]
        units = tracing.UNITS
        for line in lines:
            print(line)
        for m in mismatches:
            print(f"COUNT MISMATCH {m}")
        record.update(checks=lines, count_mismatches=mismatches)
    else:
        metrics, problems, notes = end_to_end(ops, passes, setup_times)
        mismatches = []
        units = dict(END_TO_END)
        for name, value in problems.items():
            print(_line(name, value, "s", "summed op time per pass, median over passes"))
        record.update(problem_s=problems, notes=notes)
    for name, value in metrics.items():
        print(_line(name, value, units[name], "" if trace else notes.get(name, "")))
    print(_line("fail_ratio", len(failures) / attempted, "ratio",
                f"{len(failures)} of {attempted} ops failed"))
    for f in failures:
        print(f"FAILED {f['instance']} ({f['problem']}): {f['error']}")
    record["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
