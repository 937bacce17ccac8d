"""Repeat the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads switching_F benthic field_stack \\
        --seeds 10 --seconds 35 [--trace 1] [--out summary.json]

Runs ``run.py`` once per (workload, seed), one after another, and reports per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile range as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values, bound=None):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    row = {"median": med, "q1": q1, "q3": q3, "values": values,
           "iqr_share": (q3 - q1) / med if med else None}
    if bound is not None:
        row["bound"] = bound
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        summary[workload] = {"runs": len(runs), "attempted": attempted, "failed": failed,
                             "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            row = summarize(values, bounds.get(name))
            row["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload]["metrics"][name] = row
            share = "-" if row["iqr_share"] is None else f"{row['iqr_share']:.4f}"
            bound = "" if row.get("bound") is None else f"  bound {row['bound']}"
            print(f"{workload:12s} {name:38s} median {row['median']:.6g} {row['unit']:6s}"
                  f" iqr/median {share}{bound}")
        print(f"{workload:12s} failed {failed}/{attempted}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
