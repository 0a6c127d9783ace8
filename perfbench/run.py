#!/usr/bin/env python3
"""Run one workload of the ftr benchmark and print its result line.

    python3 perfbench/run.py --workload certify|serve_read|serve_churn|compact|all
                             --seed N --seconds S --trace 0|1 [--jobs J]

Run it from the root of a source checkout. It builds the benchmark
program (perfbench/src) and the ftr binary with dune, runs it,
passes its output through, checks that the last line carries exactly
the metrics BENCHMARK.json names, and exits with the program's code:
0 when every answer was correct, non-zero otherwise. perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["certify", "serve_read", "serve_churn", "compact"]
BENCH = "_build/default/perfbench/src/main.exe"
FTR = "_build/default/bin/ftr.exe"
SOURCES = ["dune-project", "lib", "bin/ftr.ml", "perfbench/src/main.ml", "BENCHMARK.json"]


def fail(code, msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + BENCH[len("_build/default/"):], "./bin/ftr.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, "build failed: %s" % e)
    if r.returncode != 0:
        fail(3, "build failed (dune exit %d)" % r.returncode)


def run_workload(args, workload, expected):
    cmd = [BENCH, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--ftr", FTR]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    # In a process group of its own, so a timeout also takes the daemons
    # it started.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(5, "%s: no result within 170 s" % workload)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail(4, "%s: last line is not a JSON result" % workload)
    names = set(result.get("metrics", {}))
    if names != expected:
        sys.stdout.write(out)
        fail(4, "%s: metrics %s differ from BENCHMARK.json %s"
             % (workload, sorted(names), sorted(expected)))
    return p.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jobs", type=int)
    args = ap.parse_args()
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail(2, "not a source checkout (missing %s); run from its root" % ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    build()
    if args.workload != "all":
        code, lines, _ = run_workload(args, args.workload, expected)
        print("\n".join(lines))
        sys.exit(code)
    # Every workload in turn; the closing line merges their results
    # with workload-prefixed metric names.
    worst, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, lines, result = run_workload(args, w, expected)
        print("== " + w)
        print("\n".join(lines[:-1]))
        worst = max(worst, code)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][w + "." + name] = m
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
