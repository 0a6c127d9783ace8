#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's
acceptance check computes it.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) from
the root of a source checkout and prints, for every end-to-end metric of
BENCHMARK.json, the median of the runs, their quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and
the metric's bound; then the same for the unscaled figures of each
run's "host:" line (perfbench/README.md, "Host speed scaling"). Exits
non-zero if a run fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in metrics}
    unscaled = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(r.stdout.strip().split("\n")[-1])
        if r.returncode != 0 or not result["correct"]:
            sys.stdout.write(r.stdout)
            sys.exit("seed %d: run failed" % seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for line in r.stdout.split("\n"):
            if line.startswith("host:"):
                for name, v in re.findall(r"(\w+) ([0-9.e+-]+)", line.split("unscaled:")[1]):
                    unscaled.setdefault(name, []).append(float(v))
        print("seed %d  %s" % (seed, "  ".join(
            "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)
    print("%-12s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in metrics:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-12s %12.6g %12.6g %12.6g %8.3f %6.2f" % (m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]))
    for name, v in unscaled.items():
        if len(v) == args.runs:
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print("%-12s %12.6g %12.6g %12.6g %8.3f  unscaled" % (name, med, q1, q3, (q3 - q1) / med))


if __name__ == "__main__":
    main()
