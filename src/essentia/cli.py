"""Command-line front end.

Subcommands: detect (run a detector), solve (detection-driven exact
solve), verify (random-instance contract checking against the brute
oracle), gen (instance generators), bench (meta vs direct branching).

Reports share one JSON envelope:

    {"schema": "essentia/1", "command": ..., "problem": ..., "c": ...,
     "k": ..., "result": ..., "timings": {...}, "seed": ...}

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 input error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import generate, oracle
from .detect import DetectionResult, DoctCertificate, FlowerCertificate, detect, detector_factory
from .graphs import MAX_VERTICES, GraphFormatError, parse_graph, serialize_graph
from .lp import LPState, lp_dump_text
from .problems import PROBLEM_IDS, PROBLEMS
from .solve import exact_budgeted_solve, meta_solve

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

DENSITIES = (0.2, 0.4, 0.6)


class InputError(Exception):
    pass


def _bounded(kind: type, ok: Callable[[float], bool], must: str):
    """argparse type for a number of the given kind for which ok holds: a
    bad or non-numeric value is a usage error (exit 2), not a traceback."""
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}")
    return parse


# setitimer rejects intervals beyond the platform's time_t; 1e8 s (over
# three years) is accepted everywhere and is no practical limit.
MAX_TIMEOUT_S = 1e8

_non_negative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _bounded(int, lambda v: v >= 1, "a positive integer")
# No more vertices than parse_graph reads back.
_vertex_count = _bounded(int, lambda v: 0 <= v <= MAX_VERTICES,
                         f"an integer in [0, {MAX_VERTICES}]")
_positive_seconds = _bounded(float, lambda v: 0.0 < v <= MAX_TIMEOUT_S,
                             f"a positive number of seconds up to {MAX_TIMEOUT_S:g}")
# c-approximate solutions are defined for c >= 1 only.
_at_least_one = _bounded(float, lambda v: 1.0 <= v < math.inf, "a finite number >= 1")
_probability = _bounded(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def _load_graph(path: str, problem: str | None = None):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        g = parse_graph(data.decode())
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if problem is not None:
        try:
            PROBLEMS[problem].check_graph(g)
        except TypeError as exc:
            raise InputError(f"{path}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    return g, digest


def _report(command, problem, c, k, result, timings, seed, digest=None):
    return {
        "schema": "essentia/1",
        "command": command,
        "problem": problem,
        "c": c,
        "k": k,
        "input": digest,
        "result": result,
        "timings": {name: round(ms, 3) for name, ms in timings.items()},
        "seed": seed,
    }


def _emit(report: dict, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _certificate_payload(cert) -> dict:
    if isinstance(cert, FlowerCertificate):
        return {
            "type": "flower",
            "center": cert.center,
            "petals": [list(p) for p in cert.petals],
        }
    if isinstance(cert, DoctCertificate):
        return {
            "type": "separator",
            "vertex": cert.vertex,
            "size": len(cert.separator),
            "separator": sorted(list(pair) for pair in cert.separator),
            "paths": len(cert.paths),
        }
    if isinstance(cert, LPState):
        return {
            "type": "lp",
            "cost": str(cert.cost),
            "pool_size": len(cert.pool),
        }
    if isinstance(cert, Fraction):
        return {"type": "lp-value", "value": str(cert)}
    raise TypeError(f"no payload for a {type(cert).__name__} certificate")


def _detection_payload(res: DetectionResult) -> dict:
    payload = {
        "selected": sorted(res.vertices),
        "certificates": {
            str(v): _certificate_payload(cert)
            for v, cert in sorted(res.certificates.items())
        },
    }
    if res.assignment is not None:
        payload["assignment"] = [str(x) for x in res.assignment]
    return payload


def cmd_detect(args) -> int:
    t0 = time.perf_counter()
    g, digest = _load_graph(args.input, args.problem)
    t1 = time.perf_counter()
    res = detect(args.problem, g, args.k)
    payload = _detection_payload(res)  # builds the certificates it prints
    t2 = time.perf_counter()
    c = PROBLEMS[args.problem].c
    timings = {"parse_ms": (t1 - t0) * 1e3, "detect_ms": (t2 - t1) * 1e3}
    report = _report("detect", args.problem, c, args.k, payload, timings, None, digest)
    lines = [
        f"problem {args.problem} (c = {c}), k = {args.k}, n = {g.n}",
        f"S = {sorted(res.vertices)}",
    ]
    for v in sorted(res.certificates):
        lines.append(f"  {v}: {json.dumps(_certificate_payload(res.certificates[v]))}")
    _emit(report, args.json, lines)
    if args.dump_lp and args.problem == "cvd":
        for v in sorted(res.certificates):
            sys.stderr.write(lp_dump_text(res.certificates[v]))
    return EXIT_OK


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    g, digest = _load_graph(args.input, args.problem)
    t1 = time.perf_counter()
    res = meta_solve(args.problem, g)
    t2 = time.perf_counter()
    attempts = [dataclasses.asdict(a) for a in res.attempts]
    if args.trace:
        for t in res.schedule:
            print(json.dumps({
                "event": "triple", "k": t.k,
                "selected": len(t.selected), "budget": t.budget,
            }))
        for a in attempts:
            print(json.dumps({"event": "attempt", **a}))
    payload = {
        "solution": sorted(res.solution.vertices),
        "size": len(res.solution.vertices),
        "max_budget": res.max_budget_attempted,
        "solver_nodes": res.solver_nodes,
        "attempts": attempts,
    }
    timings = {"parse_ms": (t1 - t0) * 1e3, "solve_ms": (t2 - t1) * 1e3}
    c = PROBLEMS[args.problem].c
    report = _report("solve", args.problem, c, None, payload, timings, None, digest)
    lines = [
        f"problem {args.problem}, n = {g.n}",
        f"optimal solution ({payload['size']} vertices): {payload['solution']}",
        f"max solver budget {payload['max_budget']}, branching nodes {payload['solver_nodes']}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def _verify_one(task) -> dict:
    """Worker for one verification instance (picklable args/result)."""
    problem, c, text, caps_opt, caps_ess = task
    g = parse_graph(text)
    caps = oracle.OracleCaps(opt_component=caps_opt, essential_component=caps_ess)
    out = {"skipped": False, "failures": [], "checked": 0}
    try:
        opt, _ = oracle.brute_opt(problem, g, caps)
        detector = detector_factory(problem, g)
        for k in sorted({max(0, opt - 1), opt, opt + 1}):
            res = detector(k)
            ok, msg = oracle.verify_detection(problem, g, k, res.vertices, c, caps)
            out["checked"] += 1
            if not ok:
                out["failures"].append({"k": k, "reason": msg, "graph": text})
    except oracle.OracleCapExceeded as exc:
        # A skipped instance checked nothing; failures found before the
        # cap stay reported.
        out["skipped"] = True
        out["checked"] = 0
        out["reason"] = str(exc)
    return out


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    problem = args.problem
    c = args.c if args.c is not None else PROBLEMS[problem].c
    directed = PROBLEMS[problem].directed
    tasks = []
    seed = args.seed
    for density in args.densities:
        for trial in range(args.trials):
            instance_seed = hash((seed, density, trial)) & 0x7FFFFFFF
            g = generate.gnp(args.max_n, density, instance_seed, directed)
            tasks.append((problem, c, serialize_graph(g), args.cap_opt, args.cap_ess))
    # The pool starts all its workers at the first submit, so never ask
    # for more than there are tasks or CPUs.
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, tasks))
    else:
        results = [_verify_one(t) for t in tasks]
    failures = [f for r in results for f in r["failures"]]
    skipped = sum(1 for r in results if r["skipped"])
    checked = sum(r["checked"] for r in results)
    timings = {"total_ms": (time.perf_counter() - t0) * 1e3}
    payload = {
        "instances": len(tasks),
        "checked": checked,
        "skipped": skipped,
        "failures": failures[:20],
        "failure_count": len(failures),
        "vacuous": checked == 0,
    }
    report = _report("verify", problem, c, None, payload, timings, seed)
    lines = [
        f"verify {problem} (c = {c}): {len(tasks)} instances, "
        f"{checked} checks, {len(failures)} failures, {skipped} skipped",
    ]
    if not tasks:
        lines.append("warning: no trials requested; vacuous pass")
    elif checked == 0:
        lines.append("warning: no instance was checked; vacuous pass")
    if skipped:
        lines.append(f"warning: {skipped} instances skipped (oracle cap)")
    for f in failures[:10]:
        lines.append(f"FAIL k={f['k']}: {f['reason']}")
    _emit(report, args.json, lines)
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_gen(args) -> int:
    if args.model != "gnp" and args.problem is None:
        raise InputError(f"{args.model} needs --problem")
    # --n is capped by its type; a planted model's size follows from its options.
    if args.model == "planted-flower":
        n = generate.planted_size(args.problem, args.q)
    elif args.model == "planted-ess":
        n = generate.planted_size(args.problem, args.petals, args.centers, args.background)
    else:
        n = 0
    if n > MAX_VERTICES:
        print(f"error: gen would build {n} vertices, more than {MAX_VERTICES}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.model == "gnp":
        g = generate.gnp(args.n, args.p, args.seed, args.directed)
    elif args.model == "planted-flower":
        g = generate.planted_flower(args.problem, args.q)
    else:
        try:
            g = generate.planted_ess(
                args.problem, args.centers, args.petals, args.background, args.seed
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    text = serialize_graph(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    return EXIT_OK


class _Timeout(Exception):
    pass


def _with_timeout(seconds: float, fn, *fnargs):
    """Run fn under SIGALRM; returns (value, elapsed_ms, timed_out)."""

    def handler(signum, frame):
        raise _Timeout

    old = signal.signal(signal.SIGALRM, handler)
    t0 = time.perf_counter()
    try:
        # Armed and disarmed in the try, so a stray alarm reads as a timeout.
        signal.setitimer(signal.ITIMER_REAL, seconds)
        value = fn(*fnargs)
        signal.setitimer(signal.ITIMER_REAL, 0)
        return value, (time.perf_counter() - t0) * 1e3, False
    except _Timeout:
        return None, (time.perf_counter() - t0) * 1e3, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def cmd_bench(args) -> int:
    suite_path = Path(args.suite)
    try:
        entries = [
            line.strip()
            for line in suite_path.read_text().splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
    except OSError as exc:
        raise InputError(f"cannot read suite {args.suite}: {exc}") from exc
    # Every entry is read and checked before any is timed.
    loaded = [(entry, *_load_graph(str(suite_path.parent / entry), args.problem))
              for entry in entries]
    rows = []
    for entry, g, digest in loaded:
        meta, meta_ms, meta_timeout = _with_timeout(
            args.timeout, meta_solve, args.problem, g
        )
        row = {"instance": entry, "n": g.n, "digest": digest[:12]}
        if meta_timeout:
            row.update({"timeout": True, "meta_ms": round(meta_ms, 2)})
            rows.append(row)
            continue
        direct, direct_ms, direct_timeout = _with_timeout(
            args.timeout, exact_budgeted_solve, args.problem, g,
            len(meta.solution.vertices),
        )
        row.update({
            "timeout": False,
            "opt": len(meta.solution.vertices),
            "meta_nodes": meta.solver_nodes,
            "meta_max_budget": meta.max_budget_attempted,
            "meta_ms": round(meta_ms, 2),
            "direct_nodes": None if direct_timeout else direct[1],
            "direct_ms": round(direct_ms, 2),
            "direct_timeout": direct_timeout,
        })
        rows.append(row)
    payload = {"rows": rows}
    report = _report(
        "bench", args.problem, PROBLEMS[args.problem].c, None, payload,
        {"total_ms": sum(r.get("meta_ms", 0) + r.get("direct_ms", 0) for r in rows)},
        None,
    )
    lines = [
        f"{'instance':30} {'n':>4} {'opt':>4} {'meta nodes':>11} "
        f"{'direct nodes':>13} {'meta ms':>9} {'direct ms':>10}"
    ]
    for r in rows:
        if r.get("timeout"):
            lines.append(f"{r['instance']:30} {r['n']:>4} {'timeout':>4}")
        else:
            lines.append(
                f"{r['instance']:30} {r['n']:>4} {r['opt']:>4} "
                f"{r['meta_nodes']:>11} {str(r['direct_nodes']):>13} "
                f"{r['meta_ms']:>9} {r['direct_ms']:>10}"
            )
    _emit(report, args.json, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essentia",
        description="Essential-vertex detection and exact solving for "
                    "six vertex-deletion problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run a detector on a graph file")
    p.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p.add_argument("--k", type=_non_negative_int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-lp", action="store_true", dest="dump_lp")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("solve", help="solve to optimality via detection")
    p.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="contract-check a detector vs the oracle")
    p.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p.add_argument("--c", type=_at_least_one, default=None)
    p.add_argument("--max-n", type=_vertex_count, default=8, dest="max_n",
                   help="vertex count of every instance (exact, not a maximum)")
    p.add_argument("--trials", type=_non_negative_int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--densities", type=_probability, nargs="+", default=list(DENSITIES)
    )
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--cap-opt", type=_non_negative_int, default=12, dest="cap_opt")
    p.add_argument("--cap-ess", type=_non_negative_int, default=9, dest="cap_ess")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("--model", required=True,
                   choices=["gnp", "planted-flower", "planted-ess"])
    p.add_argument("--n", type=_vertex_count, default=8)
    p.add_argument("--p", type=_probability, default=0.4)
    p.add_argument("--q", type=_non_negative_int, default=3,
                   help="petals for planted-flower")
    p.add_argument("--problem", choices=PROBLEM_IDS)
    p.add_argument("--centers", type=_positive_int, default=4)
    p.add_argument("--petals", type=_non_negative_int, default=None)
    p.add_argument("--background", type=_non_negative_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="meta vs direct branching on a suite")
    p.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p.add_argument("--suite", required=True)
    p.add_argument("--timeout", type=_positive_seconds, default=60.0,
                   help=f"seconds per instance, at most {MAX_TIMEOUT_S:g}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
