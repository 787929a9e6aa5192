#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload zipf-batch --seeds 1-10 \
        [--seconds 10] [--trace 0] [--json out.json] [--against earlier.json]

For every metric it prints the median over the runs, the first and third
quartiles (Python's statistics.quantiles(values, n=4)), and the
inter-quartile distance as a share of the median. Each end-to-end spread
is compared with a third of its bound in BENCHMARK.json. With --against,
the per-run results of an earlier set (written by --json) are read too,
and each end-to-end median is compared with that set's: the shift in the
worse direction must stay within the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", default=None, help="write the per-run results here")
    ap.add_argument("--against", default=None,
                    help="per-run results of an earlier set to compare medians with")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs incorrect\n{proc.stderr[-2000:]}")
        runs.append({"seed": seed, "result": result})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)

    names = list(runs[0]["result"]["metrics"])
    print(f"\n{args.workload}, {len(runs)} runs, --seconds {seconds}, --trace {args.trace}")
    steady = True
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        verdict = ""
        if args.trace == "0" and name in bounds:
            limit = bounds[name] / 3
            ok = spread <= limit
            steady &= ok
            verdict = f"  (bound {bounds[name]}, third {limit:.4f}: {'ok' if ok else 'TOO WIDE'})"
            if earlier:
                before = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier)
                shift = (median - before) / before if before else 0.0
                worse = -shift if better[name] == "higher" else shift
                ok = worse <= bounds[name]
                steady &= ok
                verdict += f"  (vs earlier median {before:.6g}: {shift:+.4f}, " \
                           f"{'ok' if ok else 'WORSE THAN BOUND'})"
        print(f"  {name:32s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    if args.trace == "0":
        print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
