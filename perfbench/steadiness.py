#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for every
metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/steadiness.py --seeds 1-10 --workloads paper,fleet
    python3 perfbench/steadiness.py --seeds 1-5 --trace 1

Spreads of end-to-end metrics should stay below a third of their bound in
BENCHMARK.json; the table marks each one against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit {out.returncode})")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(args.seeds)} seeds, trace {args.trace})")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound:
                mark = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:36s} median {med:<14.6g} spread {spread:7.4f}"
                  f"  {mark}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))


if __name__ == "__main__":
    main()
