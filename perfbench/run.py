#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload kernels|large-funcs|serve-mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark executable
and the tdfa CLI from source with dune, runs one workload for S seconds
(by default BENCHMARK.json's run_seconds) and prints, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics (and writes the
per-layer table and a Chrome trace under .perfbench/).

    python3 perfbench/run.py --self-test

runs every workload briefly with one expected output corrupted and
exits 0 only if every run counts failed operations.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["kernels", "large-funcs", "serve-mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    missing = [p for p in ("dune-project", "lib", "bin", "perfbench/dune")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        return fail("%s is not a tdfa checkout (missing %s)"
                    % (ROOT, ", ".join(missing)))
    dune = dune_command()
    if dune is None:
        return fail("dune not found")
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ROOT, "./perfbench/bench.exe",
                  "./bin/tdfa_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out", 3)
    if r.returncode != 0:
        return fail("build failed", 3)
    return 0


def bench_command(workload, seed, seconds, trace, extra=()):
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    tdfa = os.path.join(ROOT, "_build", "default", "bin", "tdfa_cli.exe")
    return [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--tdfa", tdfa, "--out", ".perfbench",
            "--golden", os.path.join("perfbench", "golden")] + list(extra)


def one_cpu():
    """Keep the benchmark, the daemon it starts and its calibration on
    one CPU: the machine's speed phases are per CPU, and the calibration
    (perfbench/calib.ml) must see the phase of the CPU doing the work."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_bench(cmd, capture):
    """Run the benchmark executable; (exit code, stdout or None). It runs
    in its own process group, so a timeout also stops the daemon it
    started."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            preexec_fn=one_cpu,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124, None
    return proc.returncode, (out.decode() if capture else None)


def self_test():
    """Every workload, with one expected output flipped by one bit, must
    count failed operations and report correct = false."""
    ok = True
    for w in WORKLOADS:
        code, out = run_bench(bench_command(w, 1, 3, 0, ["--flip-expected"]),
                              capture=True)
        result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
        detected = result.get("failed", 0) > 0 and not result.get("correct")
        print("self-test %-12s %s (failed %s of %s)"
              % (w, "detected" if detected else "MISSED",
                 result.get("failed"), result.get("attempted")))
        ok = ok and detected
    return 0 if ok else 1


def run_seconds():
    """BENCHMARK.json's run_seconds: the one default run length."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds(),
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-golden", action="store_true",
                    help="rewrite perfbench/golden at the default seed")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")
    if not args.self_test and not (args.seconds and args.seconds > 0):
        return fail("--seconds is required (BENCHMARK.json has no "
                    "run_seconds)")
    code = build()
    if code != 0:
        return code
    if args.self_test:
        return self_test()
    extra = ["--write-golden"] if args.write_golden else []
    code, _ = run_bench(bench_command(args.workload, args.seed, args.seconds,
                                      args.trace, extra), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
