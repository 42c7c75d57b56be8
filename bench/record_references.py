"""Write references.json: one optimum per non-planted base instance.

Run from the repository root:

    python3 bench/record_references.py

Where every connected component fits ``oracle.brute_opt``'s cap the
optimum is the oracle's; elsewhere it is the smallest budget for which
the direct ``solve.exact_budgeted_solve`` (branching alone, no
detection) finds a solution.  Neither source goes through ``meta_solve``.
Re-run it only when a generator changes; the benchmark refuses to start
while a fingerprint disagrees.
"""
from __future__ import annotations

import json
import time

import workloads as W


def direct_opt(solve, problem: str, g) -> int:
    for budget in range(g.n + 1):
        sol, _ = solve.exact_budgeted_solve(problem, g, budget)
        if sol is not None:
            return len(sol)
    raise AssertionError("deleting every vertex must be feasible")


def main() -> None:
    E = W.import_essentia()
    instances = {}
    for workload in W.WORKLOADS:
        for inst in W.base_instances(workload):
            if inst.generator == "planted_ess":
                continue  # reference holds by construction
            g = inst.build(E.generate)
            t0 = time.perf_counter()
            try:
                opt, _ = E.oracle.brute_opt(inst.problem, g)
                source = "oracle.brute_opt"
            except E.oracle.OracleCapExceeded:
                opt = direct_opt(E.solve, inst.problem, g)
                source = "solve.exact_budgeted_solve, budgets 0, 1, ... until feasible"
            instances[inst.key] = {
                "opt": opt,
                "source": source,
                "fingerprint": W.fingerprint(E.graphs, g),
            }
            print(f"{inst.key}: opt {opt} by {source} in {time.perf_counter() - t0:.1f} s",
                  flush=True)
    with open(W.REFERENCES, "w") as f:
        json.dump({"instances": instances}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
