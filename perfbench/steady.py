#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same commit.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S]

Each set runs every workload --runs times, each run with another seed
(seeds 1 to --runs, the same in every set), untraced. For every
end-to-end metric of every workload it prints each set's median and
quartiles and the spread (interquartile distance as a share of the
median), and flags:

  SPREAD  a spread above the metric's bound in BENCHMARK.json;
  DRIFT   a set whose median differs from the first set's, in either
          direction, by more than the bound (set order is arbitrary);
  noisy   a spread above a third of the bound (a warning).

Exits 1 if any run failed or any SPREAD/DRIFT flag was raised. The raw
results are written to .perfbench/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]
    seeds = list(range(1, args.runs + 1))

    results = {}  # (set, workload) -> list of result objects
    bad_runs = 0
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                r = run_once(w, seed, args.seconds)
                ok = r is not None and r["correct"] and r["failed"] == 0
                bad_runs += 0 if ok else 1
                results.setdefault((s, w), []).append(r)
                print("set %d %-12s seed %-4d %s" % (
                    s + 1, w, seed,
                    "ok" if ok else "FAILED %s" % (r and r.get("failed"))),
                    file=sys.stderr, flush=True)

    flags = 0
    for w in workloads:
        print("\n%s" % w)
        print("  %-12s %4s %12s %12s %12s %8s %6s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound",
            "flags"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"]
                        for r in results[(s, w)] if r is not None]
                if len(vals) < 2:
                    print("  %-12s %4d  (too few runs)" % (name, s + 1))
                    flags += 1
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                marks = []
                if spread > bound:
                    marks.append("SPREAD")
                elif spread > bound / 3:
                    marks.append("noisy")
                if first_median is None:
                    first_median = med
                else:
                    drift = (med - first_median) / first_median
                    if abs(drift) > bound:
                        marks.append("DRIFT")
                    marks.append("vs set 1 %+.1f%%" % (100 * drift))
                flags += sum(1 for k in marks if k in ("SPREAD", "DRIFT"))
                print("  %-12s %4d %12.5g %12.5g %12.5g %7.1f%% %5.0f%%  %s"
                      % (name, s + 1, med, q1, q3, 100 * spread, 100 * bound,
                         " ".join(marks)))

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench",
                        "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump({"%d/%s" % k: v for k, v in results.items()}, f)
    print("\n%d failed runs, %d flags; raw results in %s"
          % (bad_runs, flags, os.path.relpath(path, ROOT)))
    return 1 if bad_runs or flags else 0


if __name__ == "__main__":
    sys.exit(main())
