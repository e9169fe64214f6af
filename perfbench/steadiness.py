#!/usr/bin/env python3
"""Run the benchmark several times per workload and tabulate the spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads a,b] [--seed0 100]

Each run uses its own seed (seed0, seed0 + 1, ...), with the run length and
trace setting from BENCHMARK.json (--trace 0).  For every end-to-end metric
the table gives the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, the largest deviation from
the median as a share of it, and the metric's bound.  Output is Markdown,
ready to paste into perfbench/STEADINESS.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, out.returncode,
                                                         out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d failed its correctness gate:\n%s"
                           % (workload, seed, out.stdout))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            result = run_once(spec, workload, args.seed0 + i)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("ran %s seed %d: %s" % (workload, args.seed0 + i, " ".join(
                "%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())),
                  file=sys.stderr)
        print("\n### %s (%d runs, seeds %d-%d)\n" % (workload, args.runs, args.seed0,
                                                      args.seed0 + args.runs - 1))
        print("| metric | median | q1 | q3 | IQR/median | max dev/median | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
            dev = max(abs(x - med) for x in v) / med if med else float("nan")
            print("| %s | %.6g | %.6g | %.6g | %.3f | %.3f | %s |"
                  % (name, med, q1, q3, iqr, dev, bounds.get(name, "-")))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
